// Command ghostwriter runs one benchmark on the simulated CMP and prints a
// full measurement report: cycles, coherence traffic by class, approximate
// state utilization, dynamic energy, and output error.
//
// Usage:
//
//	ghostwriter -app linear_regression -d 8 -threads 24
//	ghostwriter -app jpeg -d 4 -policy resident
//	ghostwriter -config            # print the Table 1 configuration
package main

import (
	"flag"
	"fmt"
	"os"

	ghostwriter "ghostwriter"
	ptable "ghostwriter/internal/coherence/proto"
	"ghostwriter/internal/harness"
	"ghostwriter/internal/prof"
	"ghostwriter/internal/quality"
	"ghostwriter/internal/stats"
	"ghostwriter/internal/workloads"
)

// main delegates to realMain so profile flushing (deferred there) survives
// the explicit exit code.
func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		app     = flag.String("app", "linear_regression", "benchmark name (see -list)")
		d       = flag.Int("d", 8, "d-distance (0 = baseline MESI)")
		threads = flag.Int("threads", 24, "worker threads (one per core)")
		scale   = flag.Int("scale", 1, "input scale factor")
		policy  = flag.String("policy", "hybrid", "scribble policy: hybrid|resident|escalate")
		proto   = flag.String("protocol", "", "coherence protocol table: mesi|ghostwriter|gw-noGI (empty = d-distance decides)")
		topo    = flag.String("topo", "", "interconnect topology: mesh|ring|torus|xbar (empty = the Table 1 mesh)")
		nodes   = flag.Int("nodes", 0, "interconnect node count (0 = the Table 1 24; mesh/torus fold it into the most square grid)")
		timeout = flag.Uint64("gi-timeout", 1024, "GI timeout period in cycles")
		list    = flag.Bool("list", false, "list available benchmarks")
		config  = flag.Bool("config", false, "print the simulated configuration and exit")
		tables  = flag.Bool("tables", false, "print the selected protocol's transition tables as markdown and exit")
		tune    = flag.Float64("autotune", -1, "auto-tune d for this output-error target (percent)")
		cores   = flag.Bool("cores", false, "print the per-thread utilization breakdown")
		nocHot  = flag.Bool("noc", false, "print the hottest mesh links")
		msi     = flag.Bool("msi", false, "use an MSI base protocol (no Exclusive state)")
		migOpt  = flag.Bool("migratory", false, "enable the Stenström-style migratory optimization in the base protocol")
		bound   = flag.Uint("bound", 0, "error-bound monitor: max hidden writes per GS/GI residency (0 = off)")
		adaptGI = flag.Bool("adaptive-gi", false, "let each controller adapt its GI sweep period")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on exit")
	)
	flag.Parse()
	if err := ghostwriter.ValidateTopology(*topo, *nodes); err != nil {
		fmt.Fprintln(os.Stderr, "ghostwriter:", err)
		return 2
	}
	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ghostwriter:", err)
		return 1
	}
	defer stopProf()

	if *config {
		harness.Table1(os.Stdout, harness.Options{Topo: *topo, Nodes: *nodes})
		return 0
	}
	if *tables {
		name := *proto
		if name == "" {
			name = "ghostwriter"
		}
		if _, err := ghostwriter.ParseProtocol(name); err != nil {
			fmt.Fprintln(os.Stderr, "ghostwriter:", err)
			return 1
		}
		fmt.Print(ptable.Markdown(ptable.MustLookup(name)))
		return 0
	}
	if *list {
		harness.Table2(os.Stdout, harness.Options{Scale: *scale, Threads: *threads})
		fmt.Println("plus microbenchmarks: bad_dot_product, priv_dot_product")
		return 0
	}
	if *tune >= 0 {
		if err := autotune(*app, *scale, *threads, *tune); err != nil {
			fmt.Fprintln(os.Stderr, "ghostwriter:", err)
			return 1
		}
		return 0
	}
	knobs := extraKnobs{msi: *msi, migratory: *migOpt, bound: uint32(*bound), adaptiveGI: *adaptGI,
		topo: *topo, nodes: *nodes}
	if err := run(*app, *d, *threads, *scale, *policy, *proto, *timeout, *cores, *nocHot, knobs); err != nil {
		fmt.Fprintln(os.Stderr, "ghostwriter:", err)
		return 1
	}
	return 0
}

// autotune sweeps the d-distance and reports the most aggressive setting
// meeting the error target (the §3.5 PGO/auto-tuning hook).
func autotune(name string, scale, threads int, targetPct float64) error {
	opt := harness.Options{Scale: scale, Threads: threads}
	best, runs, err := harness.AutoTune(name, opt, targetPct)
	if err != nil {
		return err
	}
	fmt.Printf("auto-tuning %s for <= %.3f%% output error\n", name, targetPct)
	fmt.Printf("%4s %12s %12s %12s\n", "d", "cycles", "messages", "error")
	for _, r := range runs {
		marker := " "
		if r.DDist == best {
			marker = "*"
		}
		fmt.Printf("%3d%s %12d %12d %11.4f%%\n", r.DDist, marker, r.Cycles, r.Stats.TotalMsgs(), r.ErrorPct)
	}
	if best == 0 {
		fmt.Println("no approximation level met the target; use the baseline protocol")
	} else {
		fmt.Printf("chosen d-distance: %d\n", best)
	}
	return nil
}

// extraKnobs bundles the protocol-variant flags.
type extraKnobs struct {
	msi, migratory, adaptiveGI bool
	bound                      uint32
	topo                       string
	nodes                      int
}

func run(name string, d, threads, scale int, policyName, protoName string, timeout uint64, cores, nocHot bool, knobs extraKnobs) error {
	f, err := workloads.Lookup(name)
	if err != nil {
		return err
	}
	policy, err := ghostwriter.ParsePolicy(policyName)
	if err != nil {
		return err
	}

	cfg := ghostwriter.Config{
		Policy:            policy,
		GITimeout:         timeout,
		MSI:               knobs.msi,
		MigratoryOpt:      knobs.migratory,
		ErrorBound:        knobs.bound,
		AdaptiveGITimeout: knobs.adaptiveGI,
		Topo:              knobs.topo,
		Nodes:             knobs.nodes,
	}
	if d > 0 {
		cfg.Protocol = ghostwriter.Ghostwriter
	}
	if protoName != "" {
		if cfg.Protocol, err = ghostwriter.ParseProtocol(protoName); err != nil {
			return err
		}
	}
	appInst := f.New(scale)
	ddist := d
	if ddist == 0 {
		ddist = -1
	}
	appInst.SetDDist(ddist)
	sys := ghostwriter.New(cfg)
	appInst.Prepare(sys)
	cycles := sys.Run(threads, appInst.Kernel)
	st := sys.Stats()
	e := sys.Energy()
	errPct := quality.Measure(f.Metric, appInst.Output(sys), appInst.Golden())

	fmt.Printf("%s (%s, %s) — %s, d-distance %d, %d threads, scale %d\n",
		f.Name, f.Suite, f.Domain, cfg.Protocol, d, threads, scale)
	fmt.Printf("%-26s %d\n", "cycles", cycles)
	fmt.Printf("%-26s %d loads, %d stores, %d scribbles\n", "core ops",
		st.Loads, st.Stores, st.Scribbles)
	fmt.Printf("%-26s %.2f%% loads, %.2f%% stores\n", "L1 miss rate",
		pct(st.L1LoadMisses, st.Loads), pct(st.L1StoreMisses, st.Stores+st.Scribbles))
	fmt.Printf("%-26s", "coherence messages")
	for _, c := range stats.MsgClasses() {
		fmt.Printf(" %s=%d", c, st.Msgs[c])
	}
	fmt.Printf(" total=%d\n", st.TotalMsgs())
	fmt.Printf("%-26s %d flit-hops\n", "NoC", st.FlitHops)
	if d > 0 {
		fmt.Printf("%-26s %d entries, %d serviced (%.1f%% of S-store misses)\n", "GS",
			st.GSEntries, st.ServicedByGS, pct(st.ServicedByGS, st.StoresOnS))
		fmt.Printf("%-26s %d entries, %d serviced (%.1f%% of I-store misses), %d timeouts\n", "GI",
			st.GIEntries, st.ServicedByGI, pct(st.ServicedByGI, st.StoresOnI), st.GITimeouts)
		fmt.Printf("%-26s %d\n", "scribble fallbacks", st.ScribbleFallbacks)
	}
	fmt.Printf("%-26s %.1f nJ memory + %.1f nJ network = %.1f nJ\n", "dynamic energy",
		e.MemoryPJ/1000, e.NetworkPJ/1000, e.TotalPJ()/1000)
	fmt.Printf("%-26s %.4f%% (%s)\n", "output error", errPct, f.Metric)
	if cores {
		fmt.Printf("\n%6s %6s %10s %12s %12s %12s %12s\n",
			"thread", "core", "ops", "mem cyc", "compute cyc", "barrier cyc", "finish")
		for _, r := range sys.Machine().CoreReport() {
			fmt.Printf("%6d %6d %10d %12d %12d %12d %12d\n",
				r.Thread, r.Core, r.Ops, r.MemCycles, r.ComputeCycles, r.BarrierCycles, r.FinishCycle)
		}
	}
	if nocHot {
		fmt.Printf("\nhottest interconnect links (flit-cycles):\n")
		for _, l := range sys.Machine().Network().TopLinks(8) {
			fmt.Printf("  %2d → %2d: %8d msgs %10d busy cycles\n", l.From, l.To, l.Msgs, l.BusyCycles)
		}
	}
	return nil
}

func pct(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den) * 100
}
