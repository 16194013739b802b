// Command gwbench runs the pinned simulator benchmark suite and manages the
// BENCH_<n>.json performance trajectory.
//
//	gwbench -list                          # show the pinned suite
//	gwbench -iters 3 -out BENCH_2.json     # measure and snapshot
//	gwbench -run 'histogram'               # only cases matching the regex
//	gwbench -baseline old.json -out B.json # embed a pre-change baseline
//	gwbench -compare BENCH_1.json          # exit 1 on >threshold regression or suite drift
//
// Numbers are host-dependent; comparing against a snapshot whose host
// fingerprint differs prints a prominent warning, and -strict-host turns
// the mismatch into a hard failure. Render the trajectory with
// `gwplot -bench 'BENCH_*.json'`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"

	"ghostwriter/internal/bench"
)

func main() {
	var (
		iters      = flag.Int("iters", 3, "timed iterations per case")
		out        = flag.String("out", "", "write snapshot JSON to this file")
		baseline   = flag.String("baseline", "", "embed this earlier snapshot as the baseline section")
		compare    = flag.String("compare", "", "compare against this snapshot; exit 1 on regression")
		threshold  = flag.Float64("threshold", 0.2, "ns/op regression threshold (0.2 = 20%)")
		list       = flag.Bool("list", false, "list the pinned suite and exit")
		runPat     = flag.String("run", "", "run only suite cases whose name matches this regexp (like `go test -run`)")
		strictHost = flag.Bool("strict-host", false, "fail -compare on a host-fingerprint mismatch instead of warning")
	)
	flag.Parse()

	var match func(bench.Case) bool
	var re *regexp.Regexp
	if *runPat != "" {
		var err error
		if re, err = regexp.Compile(*runPat); err != nil {
			fmt.Fprintln(os.Stderr, "gwbench: -run:", err)
			os.Exit(2)
		}
		match = func(c bench.Case) bool { return re.MatchString(c.Name) }
	}

	if *list {
		for _, c := range bench.Suite() {
			if match != nil && !match(c) {
				continue
			}
			fmt.Printf("%-28s app=%s d=%d scale=%d threads=%d", c.Name, c.App, c.DDist, c.Scale, c.Threads)
			if c.Protocol != "" {
				fmt.Printf(" protocol=%s", c.Protocol)
			}
			fmt.Println()
		}
		return
	}

	snap, err := bench.TakeMatching(*iters, match, func(name string) {
		fmt.Fprintf(os.Stderr, "gwbench: running %s (%d iters)\n", name, *iters)
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "gwbench:", err)
		os.Exit(1)
	}
	if len(snap.Results) == 0 {
		fmt.Fprintf(os.Stderr, "gwbench: -run %q matches no suite case (see -list)\n", *runPat)
		os.Exit(2)
	}

	if *baseline != "" {
		base, err := load(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gwbench: baseline:", err)
			os.Exit(1)
		}
		snap.Baseline = base
	}

	render(snap)

	if *out != "" {
		buf, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "gwbench:", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "gwbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "gwbench: wrote %s\n", *out)
	}

	if *compare != "" {
		base, err := load(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gwbench: compare:", err)
			os.Exit(1)
		}
		if base.Host != snap.Host {
			warnHostMismatch(*compare, snap.Host, base.Host, *strictHost)
			if *strictHost {
				os.Exit(1)
			}
		}
		if re != nil {
			// The comparison is restricted to the -run filter on both sides;
			// otherwise every filtered-out case reads as suite drift.
			filtered := *base
			filtered.Results = nil
			for _, r := range base.Results {
				if re.MatchString(r.Name) {
					filtered.Results = append(filtered.Results, r)
				}
			}
			base = &filtered
			fmt.Fprintf(os.Stderr, "gwbench: note: -run %q limits the comparison to %d of the baseline's cases\n",
				*runPat, len(base.Results))
		}
		regs := bench.Compare(snap, base, *threshold)
		for _, r := range regs {
			fmt.Fprintln(os.Stderr, "gwbench: FAIL:", r)
		}
		if len(regs) > 0 {
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "gwbench: no regression or suite drift vs %s (threshold %.0f%%)\n", *compare, *threshold*100)
	}
}

// warnHostMismatch makes a cross-host comparison impossible to miss:
// BENCH_<n>.json numbers are only meaningful within one host fingerprint,
// so a quiet one-liner here let apparent "regressions" (or flattering
// "improvements") masquerade as real ones.
func warnHostMismatch(path string, cur, base bench.Host, strict bool) {
	sep := "============================================================"
	fmt.Fprintf(os.Stderr, "gwbench: %s\n", sep)
	fmt.Fprintf(os.Stderr, "gwbench: WARNING: host fingerprint mismatch vs %s\n", path)
	fmt.Fprintf(os.Stderr, "gwbench:   current:  go=%s os=%s arch=%s cpus=%d\n", cur.Go, cur.OS, cur.Arch, cur.CPUs)
	fmt.Fprintf(os.Stderr, "gwbench:   baseline: go=%s os=%s arch=%s cpus=%d\n", base.Go, base.OS, base.Arch, base.CPUs)
	fmt.Fprintf(os.Stderr, "gwbench: ns/op comparisons across hosts are not meaningful.\n")
	if strict {
		fmt.Fprintf(os.Stderr, "gwbench: -strict-host set: failing instead of comparing.\n")
	} else {
		fmt.Fprintf(os.Stderr, "gwbench: pass -strict-host to fail instead of comparing.\n")
	}
	fmt.Fprintf(os.Stderr, "gwbench: %s\n", sep)
}

func load(path string) (*bench.Snapshot, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s bench.Snapshot
	if err := json.Unmarshal(buf, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if s.Schema != bench.Schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, s.Schema, bench.Schema)
	}
	return &s, nil
}

func render(s *bench.Snapshot) {
	fmt.Printf("%-28s %14s %12s %16s %14s %8s\n",
		"case", "ns/op", "allocs/op", "sim-cycles/sec", "events/sec", "ev/win")
	for _, r := range s.Results {
		fmt.Printf("%-28s %14.0f %12.0f %16.3e %14.3e %8.1f\n",
			r.Name, r.NsPerOp, r.AllocsPerOp, r.SimCyclesPerSec, r.EventsPerSec,
			r.EventsPerWindow)
	}
	if s.Baseline != nil {
		cyc, alloc := bench.Speedup(s, s.Baseline)
		fmt.Printf("vs baseline (%s): %.2fx sim-cycles/sec, %.1fx fewer allocs/op\n",
			s.Baseline.Generated, cyc, alloc)
	}
}
