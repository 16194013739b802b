// Package bench is the gwbench measurement core: a pinned suite of
// simulator benchmarks (the Fig. 1/5/6 kernels at fixed scale) measured
// with wall-clock and allocator brackets, snapshotted to BENCH_<n>.json,
// and compared across snapshots with a regression threshold.
//
// The suite is deliberately frozen: changing a case's app, d-distance, or
// scale silently invalidates every historical snapshot, so additions get a
// new name rather than editing an existing one.
package bench

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"ghostwriter/internal/harness"
)

// Schema identifies the snapshot format.
const Schema = "gwbench/v1"

// Host fingerprints the machine a snapshot was taken on. Numbers are only
// comparable between snapshots with an identical fingerprint.
type Host struct {
	Go   string `json:"go"`
	OS   string `json:"os"`
	Arch string `json:"arch"`
	CPUs int    `json:"cpus"`
}

// CurrentHost fingerprints the running machine.
func CurrentHost() Host {
	return Host{Go: runtime.Version(), OS: runtime.GOOS, Arch: runtime.GOARCH, CPUs: runtime.NumCPU()}
}

// Result is one benchmark case's measurement, averaged over the iterations.
type Result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"nsPerOp"`
	AllocsPerOp float64 `json:"allocsPerOp"`
	BytesPerOp  float64 `json:"bytesPerOp"`
	// SimCycles and Events describe one simulation of the case (they are
	// deterministic, not averaged).
	SimCycles uint64 `json:"simCycles"`
	Events    uint64 `json:"events"`
	// Derived throughputs: simulated work per wall-clock second.
	SimCyclesPerSec float64 `json:"simCyclesPerSec"`
	EventsPerSec    float64 `json:"eventsPerSec"`
	// Window-occupancy counters of the warm run: how the window scheduler
	// drove the simulation (window count, barrier density). Deterministic
	// per case, additive to the v1 schema, and absent from older
	// snapshots.
	Windows         uint64  `json:"windows,omitempty"`
	WindowMerges    uint64  `json:"windowMerges,omitempty"`
	EventsPerWindow float64 `json:"eventsPerWindow,omitempty"`
}

// Snapshot is the BENCH_<n>.json payload. Baseline optionally embeds the
// pre-change snapshot the results were measured against, so a single file
// records both sides of a before/after claim.
type Snapshot struct {
	Schema    string    `json:"schema"`
	Generated string    `json:"generated"`
	Iters     int       `json:"iters"`
	Host      Host      `json:"host"`
	Results   []Result  `json:"results"`
	Baseline  *Snapshot `json:"baseline,omitempty"`
}

// Case is one pinned benchmark: an application at a fixed d-distance,
// scale, and thread count. Protocol optionally names the coherence
// protocol table; empty keeps the legacy d-distance rule.
type Case struct {
	Name     string
	App      string
	DDist    int
	Scale    int
	Threads  int
	Protocol string
}

func (c Case) opt() harness.Options {
	return harness.Options{Scale: c.Scale, Threads: c.Threads, Protocol: c.Protocol}
}

// Suite returns the pinned benchmark cases: the Fig. 1 microbenchmarks and
// a cross-section of the Fig. 5/6 suite, at test scale with the paper's 24
// threads. The d=0 cases exercise the baseline MESI path, the d>0 cases the
// GS/GI machinery including the periodic GI sweep.
func Suite() []Case {
	return []Case{
		{Name: "bad_dot_product/d0", App: "bad_dot_product", DDist: 0, Scale: 1, Threads: 24},
		{Name: "bad_dot_product/d4", App: "bad_dot_product", DDist: 4, Scale: 1, Threads: 24},
		{Name: "priv_dot_product/d0", App: "priv_dot_product", DDist: 0, Scale: 1, Threads: 24},
		{Name: "linear_regression/d0", App: "linear_regression", DDist: 0, Scale: 1, Threads: 24},
		{Name: "linear_regression/d8", App: "linear_regression", DDist: 8, Scale: 1, Threads: 24},
		{Name: "histogram/d8", App: "histogram", DDist: 8, Scale: 1, Threads: 24},
		{Name: "jpeg/d8", App: "jpeg", DDist: 8, Scale: 1, Threads: 24},
		// Pure table-interpreted MESI with scribbles escalating to stores:
		// the protocol selected by name rather than by d-distance.
		{Name: "linear_regression/mesi", App: "linear_regression", DDist: 8, Scale: 1, Threads: 24, Protocol: "mesi"},
	}
}

// Run measures one case: a warmup simulation, then iters timed simulations
// bracketed by allocator statistics. Each iteration uses a fresh
// single-worker Runner so memoization cannot skip the work being measured.
func Run(c Case, iters int) (Result, error) {
	if iters < 1 {
		iters = 1
	}
	warm, err := runOnce(c)
	if err != nil {
		return Result{}, err
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		if _, err := runOnce(c); err != nil {
			return Result{}, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	ns := float64(elapsed.Nanoseconds()) / float64(iters)
	r := Result{
		Name:            c.Name,
		NsPerOp:         ns,
		AllocsPerOp:     float64(after.Mallocs-before.Mallocs) / float64(iters),
		BytesPerOp:      float64(after.TotalAlloc-before.TotalAlloc) / float64(iters),
		SimCycles:       warm.Cycles,
		Events:          warm.Stats.Events,
		Windows:         warm.Window.Windows,
		WindowMerges:    warm.Window.Merges,
		EventsPerWindow: warm.Window.EventsPerWindow(),
	}
	if ns > 0 {
		r.SimCyclesPerSec = float64(r.SimCycles) / (ns / 1e9)
		r.EventsPerSec = float64(r.Events) / (ns / 1e9)
	}
	return r, nil
}

func runOnce(c Case) (harness.RunResult, error) {
	return harness.NewRunner(1).RunApp(c.App, c.opt(), c.DDist, false)
}

// Take runs the whole suite and assembles a snapshot.
func Take(iters int, progress func(string)) (*Snapshot, error) {
	return TakeMatching(iters, nil, progress)
}

// TakeMatching is Take restricted to the suite cases match accepts (nil
// accepts all) — the `gwbench -run` tuning loop. A filtered snapshot is
// not a trajectory point: comparing it against a full baseline trips the
// suite-drift check unless the baseline is filtered the same way.
func TakeMatching(iters int, match func(Case) bool, progress func(string)) (*Snapshot, error) {
	s := &Snapshot{
		Schema:    Schema,
		Generated: time.Now().UTC().Format(time.RFC3339),
		Iters:     iters,
		Host:      CurrentHost(),
	}
	for _, c := range Suite() {
		if match != nil && !match(c) {
			continue
		}
		if progress != nil {
			progress(c.Name)
		}
		r, err := Run(c, iters)
		if err != nil {
			return nil, fmt.Errorf("bench %s: %w", c.Name, err)
		}
		s.Results = append(s.Results, r)
	}
	return s, nil
}

// Compare checks cur against base and returns one human-readable line per
// failure: a case whose ns/op grew by more than threshold (0.2 = 20%), or a
// case present in only one snapshot. Suite drift in either direction is a
// hard failure, not a skip — a silently dropped case is exactly how a
// regression hides (the case that got slow disappears from the comparison),
// and a silently added case has no baseline protecting it. Regression lines
// come first (current-snapshot order), then drift lines sorted by name.
func Compare(cur, base *Snapshot, threshold float64) []string {
	baseBy := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		baseBy[r.Name] = r
	}
	var failures []string
	var added []string
	for _, r := range cur.Results {
		b, ok := baseBy[r.Name]
		if !ok {
			added = append(added, r.Name)
			continue
		}
		delete(baseBy, r.Name)
		if b.NsPerOp <= 0 {
			continue
		}
		ratio := r.NsPerOp / b.NsPerOp
		if ratio > 1+threshold {
			failures = append(failures, fmt.Sprintf(
				"%s: ns/op %.3gx baseline (%.0f vs %.0f, threshold %.0f%%)",
				r.Name, ratio, r.NsPerOp, b.NsPerOp, threshold*100))
		}
	}
	var removed []string
	for name := range baseBy {
		removed = append(removed, name)
	}
	sort.Strings(added)
	sort.Strings(removed)
	for _, name := range added {
		failures = append(failures, fmt.Sprintf(
			"%s: suite drift — present only in the current snapshot (no baseline)", name))
	}
	for _, name := range removed {
		failures = append(failures, fmt.Sprintf(
			"%s: suite drift — present only in the baseline snapshot (case dropped)", name))
	}
	return failures
}

// Speedup summarizes cur vs base as (geomean sim-cycles/sec ratio, geomean
// allocs/op improvement factor) over the cases present in both snapshots.
// Both are >1 when cur is better.
func Speedup(cur, base *Snapshot) (cyclesPerSec, allocFactor float64) {
	baseBy := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		baseBy[r.Name] = r
	}
	logCyc, logAlloc, n := 0.0, 0.0, 0
	for _, r := range cur.Results {
		b, ok := baseBy[r.Name]
		if !ok || b.SimCyclesPerSec <= 0 || r.SimCyclesPerSec <= 0 {
			continue
		}
		logCyc += math.Log(r.SimCyclesPerSec / b.SimCyclesPerSec)
		// Guard the alloc ratio: a fully de-allocated case divides by ~0.
		ca, ba := r.AllocsPerOp, b.AllocsPerOp
		if ca < 1 {
			ca = 1
		}
		if ba < 1 {
			ba = 1
		}
		logAlloc += math.Log(ba / ca)
		n++
	}
	if n == 0 {
		return 0, 0
	}
	return math.Exp(logCyc / float64(n)), math.Exp(logAlloc / float64(n))
}
