package bench

import (
	"strings"
	"testing"
)

func snap(results ...Result) *Snapshot {
	return &Snapshot{Schema: Schema, Host: CurrentHost(), Results: results}
}

func TestCompareNoRegression(t *testing.T) {
	base := snap(Result{Name: "a/d0", NsPerOp: 1000}, Result{Name: "b/d8", NsPerOp: 2000})
	cur := snap(Result{Name: "a/d0", NsPerOp: 1100}, Result{Name: "b/d8", NsPerOp: 1500})
	if regs := Compare(cur, base, 0.2); len(regs) != 0 {
		t.Fatalf("unexpected regressions: %v", regs)
	}
}

func TestCompareSyntheticRegression(t *testing.T) {
	base := snap(Result{Name: "a/d0", NsPerOp: 1000}, Result{Name: "b/d8", NsPerOp: 2000})
	cur := snap(Result{Name: "a/d0", NsPerOp: 1300}, Result{Name: "b/d8", NsPerOp: 2100})
	regs := Compare(cur, base, 0.2)
	if len(regs) != 1 {
		t.Fatalf("want exactly one regression, got %v", regs)
	}
	if !strings.Contains(regs[0], "a/d0") {
		t.Fatalf("regression does not name the case: %q", regs[0])
	}
}

func TestCompareThresholdBoundary(t *testing.T) {
	base := snap(Result{Name: "a/d0", NsPerOp: 1000})
	// Exactly at the threshold is not a regression; just above is.
	if regs := Compare(snap(Result{Name: "a/d0", NsPerOp: 1200}), base, 0.2); len(regs) != 0 {
		t.Fatalf("at-threshold flagged: %v", regs)
	}
	if regs := Compare(snap(Result{Name: "a/d0", NsPerOp: 1201}), base, 0.2); len(regs) != 1 {
		t.Fatalf("above-threshold not flagged: %v", regs)
	}
}

// TestCompareFlagsSuiteDrift pins that a case present in only one snapshot
// is a named failure in both directions — a dropped case is how a
// regression hides, an added case has no baseline.
func TestCompareFlagsSuiteDrift(t *testing.T) {
	shared := Result{Name: "same/d0", NsPerOp: 1000}
	base := snap(shared, Result{Name: "gone/d0", NsPerOp: 1})
	cur := snap(shared, Result{Name: "new/d0", NsPerOp: 1e9})
	regs := Compare(cur, base, 0.2)
	if len(regs) != 2 {
		t.Fatalf("want two drift failures, got %v", regs)
	}
	if !strings.Contains(regs[0], "new/d0") || !strings.Contains(regs[0], "current") {
		t.Fatalf("added case not named as current-only drift: %q", regs[0])
	}
	if !strings.Contains(regs[1], "gone/d0") || !strings.Contains(regs[1], "baseline") {
		t.Fatalf("dropped case not named as baseline-only drift: %q", regs[1])
	}
	// Drift only — no false regression on the shared case.
	for _, r := range regs {
		if strings.Contains(r, "same/d0") {
			t.Fatalf("shared case flagged: %q", r)
		}
	}
}

// TestCompareDriftOneDirectionOnly pins each direction in isolation.
func TestCompareDriftOneDirectionOnly(t *testing.T) {
	shared := Result{Name: "same/d0", NsPerOp: 1000}
	if regs := Compare(snap(shared, Result{Name: "new/d0", NsPerOp: 5}), snap(shared), 0.2); len(regs) != 1 ||
		!strings.Contains(regs[0], "new/d0") {
		t.Fatalf("added-only drift: got %v", regs)
	}
	if regs := Compare(snap(shared), snap(shared, Result{Name: "gone/d0", NsPerOp: 5}), 0.2); len(regs) != 1 ||
		!strings.Contains(regs[0], "gone/d0") {
		t.Fatalf("dropped-only drift: got %v", regs)
	}
}

func TestSpeedup(t *testing.T) {
	base := snap(
		Result{Name: "a/d0", SimCyclesPerSec: 1e6, AllocsPerOp: 1000},
		Result{Name: "b/d8", SimCyclesPerSec: 2e6, AllocsPerOp: 4000},
	)
	cur := snap(
		Result{Name: "a/d0", SimCyclesPerSec: 2e6, AllocsPerOp: 100},
		Result{Name: "b/d8", SimCyclesPerSec: 4e6, AllocsPerOp: 400},
	)
	cyc, alloc := Speedup(cur, base)
	if cyc < 1.99 || cyc > 2.01 {
		t.Fatalf("cycles/sec geomean = %v, want ~2", cyc)
	}
	if alloc < 9.9 || alloc > 10.1 {
		t.Fatalf("alloc factor geomean = %v, want ~10", alloc)
	}
}

func TestSpeedupAllocFloor(t *testing.T) {
	// A case driven to zero allocs must not blow up the geomean.
	base := snap(Result{Name: "a/d0", SimCyclesPerSec: 1e6, AllocsPerOp: 50})
	cur := snap(Result{Name: "a/d0", SimCyclesPerSec: 1e6, AllocsPerOp: 0})
	_, alloc := Speedup(cur, base)
	if alloc != 50 {
		t.Fatalf("alloc factor = %v, want 50 (floored at 1 alloc/op)", alloc)
	}
}

// TestRunSmoke exercises the measurement bracket on the cheapest case.
func TestRunSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	r, err := Run(Case{Name: "smoke", App: "bad_dot_product", DDist: 0, Scale: 1, Threads: 4}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.NsPerOp <= 0 || r.SimCycles == 0 || r.Events == 0 {
		t.Fatalf("implausible measurement: %+v", r)
	}
	if r.SimCyclesPerSec <= 0 || r.EventsPerSec <= 0 {
		t.Fatalf("throughputs not derived: %+v", r)
	}
}

// TestTakeMatchingFilter pins the -run filter contract without running any
// simulation: a match function that rejects everything must yield an empty
// (but well-formed) snapshot, and the nil match must keep Take and
// TakeMatching interchangeable over the frozen suite.
func TestTakeMatchingFilter(t *testing.T) {
	var ran []string
	s, err := TakeMatching(1, func(Case) bool { return false }, func(name string) {
		ran = append(ran, name)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Results) != 0 || len(ran) != 0 {
		t.Fatalf("reject-all filter still ran %v", ran)
	}
	if s.Schema != Schema || s.Host != CurrentHost() {
		t.Fatalf("filtered snapshot malformed: %+v", s)
	}
}

// TestTakeMatchingSelects runs exactly one suite case through the filter
// and checks the new window-occupancy fields ride along in the result.
func TestTakeMatchingSelects(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-backed")
	}
	s, err := TakeMatching(1, func(c Case) bool { return c.Name == "bad_dot_product/d0" }, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Results) != 1 || s.Results[0].Name != "bad_dot_product/d0" {
		t.Fatalf("filter selected %+v, want exactly bad_dot_product/d0", s.Results)
	}
	r := s.Results[0]
	if r.Windows == 0 || r.EventsPerWindow <= 0 {
		t.Errorf("window counters dead in bench result: %+v", r)
	}
}
