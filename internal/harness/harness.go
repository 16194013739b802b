// Package harness runs the paper's evaluation: for every figure and table
// in §4 it executes the required simulations and produces the same data
// series the paper plots. It is shared by cmd/gwsweep (which regenerates
// EXPERIMENTS.md) and the repository's top-level benchmarks.
//
// The evaluation is a grid of independent (application × d-distance ×
// configuration) cells, each a pure function of its Spec. The Runner fans a
// grid out across a bounded worker pool and can persist results in a
// content-addressed on-disk Cache, so sweeps scale with the host's cores
// and re-runs only simulate cells whose inputs changed. The package-level
// functions (RunApp, RunSuite, Fig1, ...) are convenience wrappers that use
// a fresh all-CPUs Runner without a disk cache.
package harness

import (
	"fmt"
	"reflect"

	ghostwriter "ghostwriter"
	"ghostwriter/internal/quality"
	"ghostwriter/internal/workloads"
)

// Options scales the evaluation.
type Options struct {
	// Scale grows every application's input linearly (1 = test scale).
	Scale int
	// Threads is the worker-thread count (the paper runs 24, one per core).
	Threads int
	// Protocol optionally names the coherence protocol table every cell
	// runs under ("mesi", "ghostwriter", "gw-noGI"). Empty keeps the
	// legacy rule: positive d-distances run Ghostwriter, d = 0 runs the
	// baseline.
	Protocol string
	// Topo names the interconnect topology every cell runs on ("mesh",
	// "ring", "torus", "xbar"). Empty keeps the Table 1 6x4 mesh.
	Topo string
	// Nodes overrides the interconnect node count (0 keeps 24). Mesh and
	// torus fold it into the most square grid.
	Nodes int
}

// DefaultOptions runs the paper's 24-thread configuration at test scale.
func DefaultOptions() Options { return Options{Scale: 1, Threads: 24} }

// RunResult is one (application, d-distance) simulation outcome.
type RunResult struct {
	App     string
	Suite   string
	Metric  quality.MetricKind
	DDist   int // 0 = baseline MESI (the paper's d-distance 0 bars)
	Threads int
	Cycles  uint64
	Stats   ghostwriter.Stats
	Energy  ghostwriter.EnergyMeter
	// ErrorPct is the application's Table 2 metric, in percent.
	ErrorPct float64
	// Window holds the run's window-scheduling counters. Two runs of one
	// Spec report equal counters, but they describe how the engine drove
	// the run rather than what it computed, so they are excluded from JSON
	// deliberately: they must not change cache entries, cache keys, or
	// determinism fingerprints — all of which are derived from this
	// struct's JSON form. Cache hits therefore report a zero Window, which
	// is accurate: a hit drained no windows.
	Window ghostwriter.WindowStats `json:"-"`
}

// IsZero reports whether r is the all-zero RunResult — what decoding `{}`
// yields. No simulation produces one (App is always set), so cache layers
// treat a zero result as a client bug and refuse to publish it.
func (r *RunResult) IsZero() bool {
	return reflect.DeepEqual(*r, RunResult{})
}

// GSFrac returns the Fig. 7a metric: the fraction of stores that would
// have missed on S that were serviced by GS.
func (r *RunResult) GSFrac() float64 {
	if r.Stats.StoresOnS == 0 {
		return 0
	}
	return float64(r.Stats.ServicedByGS) / float64(r.Stats.StoresOnS)
}

// GIFrac returns the Fig. 7b metric for invalid blocks and GI.
func (r *RunResult) GIFrac() float64 {
	if r.Stats.StoresOnI == 0 {
		return 0
	}
	return float64(r.Stats.ServicedByGI) / float64(r.Stats.StoresOnI)
}

// RunApp executes one application once. ddist 0 selects the baseline MESI
// protocol; positive values run Ghostwriter with that d-distance. profile
// enables the Fig. 2 store-similarity profiler.
func RunApp(name string, opt Options, ddist int, profile bool) (RunResult, error) {
	return NewRunner(0).RunApp(name, opt, ddist, profile)
}

// RunApp is RunApp routed through this Runner's worker pool and caches.
func (r *Runner) RunApp(name string, opt Options, ddist int, profile bool) (RunResult, error) {
	return r.RunSpec(specFor(name, opt, ddist, profile, ghostwriter.PolicyHybrid))
}

// RunAppPolicy is RunApp with an explicit scribble residency policy (used
// by the ablation benchmarks).
func RunAppPolicy(name string, opt Options, ddist int, policy ghostwriter.ScribblePolicy) (RunResult, error) {
	return NewRunner(0).RunSpec(specFor(name, opt, ddist, false, policy))
}

// SuiteResult bundles the baseline, d=4, and d=8 runs of one application —
// the inputs to Figs. 7 through 11.
type SuiteResult struct {
	App                string
	Base, D4, D8       RunResult
	SpeedupPct4        float64 // Fig. 10
	SpeedupPct8        float64
	EnergySavedPct4    float64 // Fig. 9 (NoC + memory hierarchy dynamic energy)
	EnergySavedPct8    float64
	TrafficNorm4       float64 // Fig. 8 (total messages normalized to baseline)
	TrafficNorm8       float64
	NetEnergySaved4Pct float64
	NetEnergySaved8Pct float64
}

// suiteDists are the d-distances of one suite row: baseline, 4, 8.
var suiteDists = []int{0, 4, 8}

// suiteJobs lays out the (application × d) grid for a set of factories, in
// the deterministic order results are reassembled in: three consecutive
// cells (d = 0, 4, 8) per application.
func suiteJobs(apps []workloads.Factory, opt Options) []Job {
	jobs := make([]Job, 0, len(apps)*len(suiteDists))
	for _, f := range apps {
		for _, d := range suiteDists {
			jobs = append(jobs, Job{
				Label: fmt.Sprintf("%s d=%d t=%d", f.Name, d, opt.Threads),
				Spec:  specFor(f.Name, opt, d, false, ghostwriter.PolicyHybrid),
			})
		}
	}
	return jobs
}

// deriveSuite computes the figure metrics from one application's three runs.
func deriveSuite(base, d4, d8 RunResult) SuiteResult {
	s := SuiteResult{App: base.App, Base: base, D4: d4, D8: d8}
	s.SpeedupPct4 = pctGain(base.Cycles, d4.Cycles)
	s.SpeedupPct8 = pctGain(base.Cycles, d8.Cycles)
	s.EnergySavedPct4 = pctSaved(base.Energy.TotalPJ(), d4.Energy.TotalPJ())
	s.EnergySavedPct8 = pctSaved(base.Energy.TotalPJ(), d8.Energy.TotalPJ())
	s.NetEnergySaved4Pct = pctSaved(base.Energy.NetworkPJ, d4.Energy.NetworkPJ)
	s.NetEnergySaved8Pct = pctSaved(base.Energy.NetworkPJ, d8.Energy.NetworkPJ)
	s.TrafficNorm4 = ratio(d4.Stats.TotalMsgs(), base.Stats.TotalMsgs())
	s.TrafficNorm8 = ratio(d8.Stats.TotalMsgs(), base.Stats.TotalMsgs())
	return s
}

// runSuiteApps fans one suite grid out over the pool and reassembles the
// per-application rows in grid order.
func (r *Runner) runSuiteApps(apps []workloads.Factory, opt Options) ([]SuiteResult, error) {
	cells := r.Run(suiteJobs(apps, opt))
	if err := firstErr(cells); err != nil {
		return nil, err
	}
	out := make([]SuiteResult, 0, len(apps))
	for i := 0; i < len(cells); i += len(suiteDists) {
		out = append(out, deriveSuite(cells[i].Result, cells[i+1].Result, cells[i+2].Result))
	}
	return out, nil
}

// RunSuiteApp runs one application at d ∈ {0, 4, 8} and derives the
// figure metrics.
func RunSuiteApp(name string, opt Options) (SuiteResult, error) {
	return NewRunner(0).RunSuiteApp(name, opt)
}

// RunSuiteApp is RunSuiteApp on this Runner.
func (r *Runner) RunSuiteApp(name string, opt Options) (SuiteResult, error) {
	f, err := workloads.Lookup(name)
	if err != nil {
		return SuiteResult{}, err
	}
	res, err := r.runSuiteApps([]workloads.Factory{f}, opt)
	if err != nil {
		return SuiteResult{}, err
	}
	return res[0], nil
}

// RunSuite runs the whole Table 2 suite.
func RunSuite(opt Options) ([]SuiteResult, error) {
	return NewRunner(0).RunSuite(opt)
}

// RunSuite is RunSuite on this Runner.
func (r *Runner) RunSuite(opt Options) ([]SuiteResult, error) {
	return r.runSuiteApps(workloads.Suite(), opt)
}

// pctGain returns the percent speedup of after vs before cycle counts.
func pctGain(before, after uint64) float64 {
	if after == 0 {
		return 0
	}
	return (float64(before)/float64(after) - 1) * 100
}

// pctSaved returns the percent reduction from before to after.
func pctSaved(before, after float64) float64 {
	if before == 0 {
		return 0
	}
	return (1 - after/before) * 100
}

// ratio returns a/b as a float (0 if b is 0).
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
