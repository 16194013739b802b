// Command perfbench is the repository benchmark: one command that runs a
// named workload against the simulator, the model checker or the durable
// sweep service, checks every output against pinned reference digests, and
// prints the end-to-end metrics (or, with -trace 1, the per-layer metrics)
// as a JSON object on the last line of standard output.
//
//	go run ./perfbench -workload paper_suite -seed 1 -seconds 20 -trace 0
//	go run ./perfbench -workload sharing_storm -seed 7 -seconds 20 -trace 1
//	go run ./perfbench -write-reference perfbench/reference.json
//
// perfbench/run.sh builds it into .bench_build and runs it with every build
// and temporary file kept inside the checkout. README.md in this directory
// documents the workloads, the metrics and which layer moves which
// end-to-end number.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"time"
)

// options is one benchmark invocation.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// spansDir receives the traced run's spans (Chrome trace-event JSON).
	spansDir string
	// tiny runs one small pass per phase: the self-test size.
	tiny bool
}

func main() {
	var (
		o        options
		traceInt int
		refOut   string
	)
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+fmt.Sprint(workloadNames()))
	flag.Int64Var(&o.seed, "seed", defaultSeed, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measured seconds per run")
	flag.IntVar(&traceInt, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&o.spansDir, "spans-dir", ".bench_build/spans", "directory for the traced run's span file")
	flag.StringVar(&refOut, "write-reference", "", "recompute the pinned reference digests into this file and exit")
	flag.Parse()
	o.trace = traceInt == 1

	if refOut != "" {
		if err := writeReference(refOut); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if traceInt != 0 && traceInt != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	res, err := run(o, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one named traffic mix. A run calls prepare once, then
// repeats setup → run → verify passes until the measuring time is used up.
type workload interface {
	// prepare does the one-time work every pass reuses (untimed).
	prepare() error
	// setup builds one pass's seeded inputs; its median duration is setup_s.
	setup(pass int) error
	// run executes the pass and is the only timed phase. tr is nil in
	// untraced passes.
	run(tr *tracer, t *tally)
	// verify checks the pass's outputs and releases its resources (untimed).
	verify(t *tally)
	// finish runs the end-of-run checks that need more than the pass kept.
	finish(t *tally)
}

// tally accumulates one phase's measurements.
type tally struct {
	cells     []float64 // host ms per cell
	passEnds  []int     // len(cells) at the end of each pass
	passRates []float64 // cells per second of each pass
	passRSS   []float64 // peak resident MiB of each pass
	rpcs      []float64 // host ms per gwcached request (fleet)
	elapsed   time.Duration
	simOps    uint64 // simulated loads + stores + scribbles
	simCycles uint64
	schedules uint64
	steps     uint64 // checker schedule steps (one simulated op each)
	attempted int64
	failed    int64
	failures  []string
}

// fail records one failed operation; the first few are kept for the log.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.failures) < 8 {
		t.failures = append(t.failures, fmt.Sprintf(format, args...))
	}
}

// check counts one checked operation, failing it when err is non-nil.
func (t *tally) check(what string, err error) {
	t.attempted++
	if err != nil {
		t.fail("%s: %v", what, err)
	}
}

// perSecond divides a work count by the phase's timed seconds.
func (t *tally) perSecond(n float64) float64 { return n / t.elapsed.Seconds() }

// ops is the phase's per-op denominator: simulated memory ops, or checker
// steps, or gwcached requests, whichever the workload performs.
func (t *tally) ops() float64 {
	switch {
	case t.simOps > 0:
		return float64(t.simOps)
	case t.steps > 0:
		return float64(t.steps)
	}
	return float64(len(t.rpcs))
}

const defaultSeed = 1

var workloadsByName = map[string]func(o options) workload{
	"paper_suite":   newPaperSuite,
	"sharing_storm": newSharingStorm,
	"model_check":   newModelCheck,
	"fleet":         newFleet,
}

func workloadNames() []string {
	var names []string
	for n := range workloadsByName {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// run executes one benchmark invocation and returns its result line. Human-
// readable metric lines go to log.
func run(o options, log io.Writer) (*result, error) {
	mk, ok := workloadsByName[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", o.workload, workloadNames())
	}
	if o.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	w := mk(o)
	if err := w.prepare(); err != nil {
		return nil, fmt.Errorf("%s: prepare: %w", o.workload, err)
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	var (
		setups  []float64
		checked []*tally // every phase whose checks count towards the result
		m       = map[string]metric{}
	)
	if !o.trace {
		var t tally
		if err := measure(w, o, nil, budget, &t, &setups); err != nil {
			return nil, err
		}
		w.finish(&t)
		checked = append(checked, &t)
		endToEnd(o, &t, setups, m, log)
	} else {
		// The untraced half is the baseline the traced half's overhead is
		// measured against; both run the same passes for the same time.
		var base, traced tally
		if err := measure(w, o, nil, budget/2, &base, &setups); err != nil {
			return nil, err
		}
		tr := newTracer()
		prof, err := startProfile()
		if err != nil {
			return nil, err
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		err = measure(w, o, tr, budget/2, &traced, &setups)
		runtime.ReadMemStats(&ms1)
		shares, perr := prof.stop()
		if err != nil {
			return nil, err
		}
		if perr != nil {
			return nil, fmt.Errorf("cpu profile: %w", perr)
		}
		w.finish(&traced)
		tr.src = srcProbe
		probes := runProbes(tr, o.tiny, &traced)
		checked = append(checked, &base, &traced)
		perLayer(o, &layerRun{tr: tr, base: &base, traced: &traced, probes: probes,
			shares: shares, ms0: &ms0, ms1: &ms1}, m, log)
		if err := tr.write(o.spansDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed)); err != nil {
			return nil, fmt.Errorf("write spans: %w", err)
		}
	}
	res := &result{Metrics: m}
	for _, t := range checked {
		res.Attempted += t.attempted
		res.Failed += t.failed
		for _, f := range t.failures {
			fmt.Fprintln(os.Stderr, "perfbench: FAILED:", f)
		}
	}
	if res.Attempted == 0 {
		return nil, errors.New("no operation was attempted")
	}
	res.Correct = res.Failed == 0
	printMetric(log, "error_rate", float64(res.Failed)/float64(res.Attempted), "ratio", "")
	return res, nil
}

// measure repeats passes of w until budget has elapsed (one pass in tiny
// mode). Only run is timed; every setup's duration is appended to setups.
func measure(w workload, o options, tr *tracer, budget time.Duration, t *tally, setups *[]float64) error {
	start := time.Now()
	for pass := 0; ; pass++ {
		s0 := time.Now()
		if err := w.setup(pass); err != nil {
			return fmt.Errorf("%s: setup: %w", o.workload, err)
		}
		*setups = append(*setups, time.Since(s0).Seconds())
		resetPeakRSS()
		p0, n0 := time.Now(), len(t.cells)
		w.run(tr, t)
		d := time.Since(p0)
		t.passRSS = append(t.passRSS, peakRSSMB())
		t.elapsed += d
		t.passRates = append(t.passRates, float64(len(t.cells)-n0)/d.Seconds())
		t.passEnds = append(t.passEnds, len(t.cells))
		w.verify(t)
		if o.tiny || time.Since(start) >= budget {
			return nil
		}
	}
}

// passRand is the reproducible random order of one pass of a seeded run.
func passRand(seed int64, pass int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(pass)))
}

// put records one metric in the result map and prints it.
func put(m map[string]metric, log io.Writer, name string, v float64, unit, note string) {
	m[name] = metric{Value: v, Unit: unit}
	printMetric(log, name, v, unit, note)
}

// printMetric prints one metric line without putting it in the JSON result
// (workload-specific end-to-end figures outside the gated set).
func printMetric(log io.Writer, name string, v float64, unit, note string) {
	if note != "" {
		note = "  (" + note + ")"
	}
	fmt.Fprintf(log, "%-34s %14.6g %s%s\n", name, v, unit, note)
}

// endToEnd reports the untraced run's metrics: the gated set in the JSON
// line, plus the workload-specific figures as printed lines.
func endToEnd(o options, t *tally, setups []float64, m map[string]metric, log io.Writer) {
	fmt.Fprintf(log, "perfbench %s seed=%d: %d cells in %.2fs, %d checked ops, %d failed\n",
		o.workload, o.seed, len(t.cells), t.elapsed.Seconds(), t.attempted, t.failed)
	q1, q3 := quartiles(t.passRates)
	put(m, log, "cells_per_s", median(t.passRates), "1/s",
		fmt.Sprintf("median of %d passes, quartiles %.4g..%.4g", len(t.passRates), q1, q3))
	put(m, log, "cell_p50_ms", median(t.cells), "ms", fmt.Sprintf("n=%d", len(t.cells)))
	tail, pct, blocks := blockTail(t.cells, t.passEnds)
	note := fmt.Sprintf("p%.4g, n=%d", pct, len(t.cells))
	if blocks > 0 {
		note = fmt.Sprintf("median over %d blocks of whole passes (>=%d cells each) of the block's p%.4g, n=%d",
			blocks, tailBlockCells, pct, len(t.cells))
	}
	put(m, log, "cell_tail_ms", tail, "ms", note)
	put(m, log, "setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups)))
	put(m, log, "peak_rss_mb", median(t.passRSS), "MB", fmt.Sprintf("median of %d per-pass peaks", len(t.passRSS)))
	if t.simOps > 0 {
		printMetric(log, "sim_ops_per_s", t.perSecond(float64(t.simOps)), "1/s", "")
		printMetric(log, "sim_cycles_per_s", t.perSecond(float64(t.simCycles)), "1/s", "")
	}
	if t.schedules > 0 {
		printMetric(log, "check_schedules_per_s", t.perSecond(float64(t.schedules)), "1/s", "")
	}
	if len(t.rpcs) > 0 {
		printMetric(log, "rpc_p50_ms", median(t.rpcs), "ms", fmt.Sprintf("n=%d", len(t.rpcs)))
		rt, rp := tailOf(t.rpcs)
		printMetric(log, "rpc_tail_ms", rt, "ms", fmt.Sprintf("p%.4g, n=%d", rp, len(t.rpcs)))
	}
}
