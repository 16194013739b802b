package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	ghostwriter "ghostwriter"
	"ghostwriter/internal/harness"
	"ghostwriter/internal/quality"
	"ghostwriter/internal/workloads"
)

// paperSuite is the evaluation grid users run: the six Table 2 apps at
// d ∈ {0,4,8} plus the Fig. 1 dot-product pair, 24 threads on the Table 1
// mesh, through a harness.Runner with no result cache. The seed shuffles
// the cell order of every pass.
type paperSuite struct {
	o       options
	specs   []harness.Spec
	jobs    []harness.Job
	runner  *harness.Runner
	cells   []harness.CellResult // the untraced pass's results
	manual  []manualCell         // the traced pass's results
	tracing bool
}

// manualCell is one cell executed outside the Runner.
type manualCell struct {
	spec harness.Spec
	res  harness.RunResult
	err  error
}

func newPaperSuite(o options) workload { return &paperSuite{o: o} }

// paperSpec is one paper_suite cell, built exactly like the harness's own
// suite and Fig. 1 cells so that its key is the "all" manifest's.
func paperSpec(app string, d int) harness.Spec {
	return harness.Spec{App: app, Scale: 1, Threads: 24, DDist: d,
		Config: ghostwriter.Config{Policy: ghostwriter.PolicyHybrid}}
}

func (w *paperSuite) prepare() error {
	for _, f := range workloads.Suite() {
		for _, d := range []int{0, 4, 8} {
			w.specs = append(w.specs, paperSpec(f.Name, d))
		}
	}
	for _, app := range []string{"bad_dot_product", "priv_dot_product"} {
		w.specs = append(w.specs, paperSpec(app, 0))
	}
	if w.o.tiny {
		w.specs = []harness.Spec{paperSpec("pca", 8), paperSpec("blackscholes", 0), paperSpec("inversek2j", 4)}
	}
	for _, s := range w.specs {
		if _, ok := pinned.Cells[s.Key()]; !ok {
			return fmt.Errorf("cell %s d=%d is not a pinned cell of the all manifest", s.App, s.DDist)
		}
	}
	return nil
}

// setup shuffles the pass's cell order, builds a fresh Runner (its memo
// would otherwise serve every later pass) and generates every cell's seeded
// inputs and golden output.
func (w *paperSuite) setup(pass int) error {
	rng := passRand(w.o.seed, pass)
	w.jobs = w.jobs[:0]
	for _, i := range rng.Perm(len(w.specs)) {
		s := w.specs[i]
		w.jobs = append(w.jobs, harness.Job{Label: fmt.Sprintf("%s d=%d", s.App, s.DDist), Spec: s})
	}
	w.runner = harness.NewRunner(runtime.NumCPU())
	for _, s := range w.specs {
		_, app, _, err := prepareCell(s)
		if err != nil {
			return err
		}
		if len(app.Golden()) == 0 {
			return fmt.Errorf("%s: empty golden output", s.App)
		}
	}
	return nil
}

func (w *paperSuite) run(tr *tracer, t *tally) {
	w.tracing = tr != nil
	if !w.tracing {
		w.cells = w.runner.Run(w.jobs)
		for _, c := range w.cells {
			t.cells = append(t.cells, ms(c.Elapsed.Nanoseconds()))
			t.simOps += simOps(&c.Result.Stats)
			t.simCycles += c.Result.Cycles
		}
		return
	}
	w.manual = make([]manualCell, len(w.jobs))
	var mu sync.Mutex
	parallel(len(w.jobs), func(i int) {
		s := w.jobs[i].Spec
		trace := tr.newTrace()
		root := tr.begin("cell", trace, 0)
		res, _, err := execCell(s, tr, trace, root.id)
		d := tr.end(root, map[string]float64{"ddist": float64(s.DDist)})
		w.manual[i] = manualCell{spec: s, res: res, err: err}
		mu.Lock()
		t.cells = append(t.cells, ms(d.Nanoseconds()))
		t.simOps += simOps(&res.Stats)
		t.simCycles += res.Cycles
		mu.Unlock()
	})
}

func (w *paperSuite) verify(t *tally) {
	if !w.tracing {
		for _, c := range w.cells {
			err := c.Err
			if err == nil {
				err = expectCell(c.Job.Spec.Key(), &c.Result)
			}
			t.check(c.Job.Label, err)
		}
		return
	}
	for _, c := range w.manual {
		err := c.err
		if err == nil {
			err = expectCell(c.spec.Key(), &c.res)
		}
		t.check(c.spec.App, err)
	}
}

// finish re-runs every cell outside the Runner, where the System is at
// hand, and checks the coherence invariants beside the digest.
func (w *paperSuite) finish(t *tally) {
	errs := make([]error, len(w.specs))
	parallel(len(w.specs), func(i int) {
		s := w.specs[i]
		res, sys, err := execCell(s, nil, 0, 0)
		if err == nil {
			err = sys.CheckInvariants(cellConfig(s).Protocol == ghostwriter.Baseline)
		}
		if err == nil {
			err = expectCell(s.Key(), &res)
		}
		errs[i] = err
	})
	for i, err := range errs {
		t.check(fmt.Sprintf("invariants %s d=%d", w.specs[i].App, w.specs[i].DDist), err)
	}
}

// cellConfig is the system a legacy-rule cell builds: positive d-distances
// run Ghostwriter, d = 0 the baseline (harness.Spec's documented rule).
func cellConfig(s harness.Spec) ghostwriter.Config {
	cfg := s.Config
	if s.DDist > 0 {
		cfg.Protocol = ghostwriter.Ghostwriter
	}
	return cfg
}

// prepareCell builds a legacy-rule cell's app and system and loads the
// app's seeded inputs, as the harness does before simulating.
func prepareCell(s harness.Spec) (workloads.Factory, workloads.App, *ghostwriter.System, error) {
	f, err := workloads.Lookup(s.App)
	if err != nil {
		return f, nil, nil, err
	}
	app := f.New(s.Scale)
	sys := ghostwriter.New(cellConfig(s))
	d := s.DDist
	if d == 0 {
		d = -1 // baseline: scribbles execute as conventional stores
	}
	app.SetDDist(d)
	app.Prepare(sys)
	return f, app, sys, nil
}

// execCell runs one legacy-rule cell the way the harness executes it —
// prepare, run, measure — with a span around each layer call. A panic is
// returned as the cell's error, as the Runner does.
func execCell(s harness.Spec, tr *tracer, trace, parent uint64) (res harness.RunResult, sys *ghostwriter.System, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s d=%d panicked: %v", s.App, s.DDist, p)
		}
	}()
	sp := tr.begin("workloads.prepare", trace, parent)
	f, app, sys, err := prepareCell(s)
	tr.end(sp, nil)
	if err != nil {
		return res, nil, err
	}
	sp = tr.begin("machine.run", trace, parent)
	cycles := sys.Run(s.Threads, app.Kernel)
	tr.end(sp, runArgs(sys))
	sp = tr.begin("quality.measure", trace, parent)
	errPct := quality.Measure(f.Metric, app.Output(sys), app.Golden())
	tr.end(sp, nil)
	return harness.RunResult{
		App: f.Name, Suite: f.Suite, Metric: f.Metric, DDist: s.DDist, Threads: s.Threads,
		Cycles: cycles, Stats: *sys.Stats(), Energy: *sys.Energy(), ErrorPct: errPct,
	}, sys, nil
}

// runArgs are the counters a machine.run span carries.
func runArgs(sys *ghostwriter.System) map[string]float64 {
	st := sys.Stats()
	return map[string]float64{
		"ops":         float64(simOps(st)),
		"cycles":      float64(st.Cycles),
		"events":      float64(st.Events),
		"windows":     float64(sys.WindowStats().Windows),
		"msgs":        float64(st.TotalMsgs()),
		"flit_hops":   float64(st.FlitHops),
		"dram":        float64(st.DRAMAccesses),
		"l1_misses":   float64(st.L1LoadMisses + st.L1StoreMisses),
		"l1_accesses": float64(st.L1LoadHits + st.L1LoadMisses + st.L1StoreHits + st.L1StoreMisses),
		"stores_on_s": float64(st.StoresOnS),
		"gs":          float64(st.ServicedByGS),
		"stores_on_i": float64(st.StoresOnI),
		"gi":          float64(st.ServicedByGI),
	}
}

func simOps(st *ghostwriter.Stats) uint64 { return st.Loads + st.Stores + st.Scribbles }

func ms(ns int64) float64 { return float64(ns) / 1e6 }

// parallel calls fn(0..n-1) on at most runtime.NumCPU() goroutines and
// returns when every call has.
func parallel(n int, fn func(i int)) {
	workers := min(runtime.NumCPU(), n)
	var next atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}
