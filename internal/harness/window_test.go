package harness

import (
	"testing"
)

// TestWindowStatsFlow pins the observability plumbing from the simulator
// to the harness: a fresh (uncached) run carries live window counters in
// RunResult.Window, two fresh runs of one spec report identical counters
// (they are a function of the simulated schedule), and the runner-level
// summary aggregates across cells.
func TestWindowStatsFlow(t *testing.T) {
	r := NewRunner(1)

	opt := fastOptions()
	res, err := r.RunApp("bad_dot_product", opt, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Window.Windows == 0 || res.Window.Events == 0 {
		t.Errorf("window counters dead on a fresh run: %+v", res.Window)
	}

	// A second Runner has an empty memo, so it simulates the same spec
	// again; the counters must repeat exactly.
	again, err := NewRunner(1).RunApp("bad_dot_product", opt, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if again.Window != res.Window {
		t.Errorf("window counters differ between runs of one spec:\n first %+v\n again %+v",
			res.Window, again.Window)
	}

	other, err := r.RunApp("priv_dot_product", opt, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	sum := r.WindowSummary()
	if sum.Cells != 2 {
		t.Fatalf("WindowSummary.Cells = %d, want 2", sum.Cells)
	}
	if want := res.Window.Windows + other.Window.Windows; sum.Windows != want {
		t.Errorf("WindowSummary.Windows = %d, want %d", sum.Windows, want)
	}
	if sum.Events == 0 || sum.MaxWindow == 0 {
		t.Errorf("summary counters dead: %+v", sum)
	}
	if sum.EventsPerWindow() <= 0 {
		t.Errorf("EventsPerWindow = %v, want > 0", sum.EventsPerWindow())
	}

	// A memoized re-run must not inflate the aggregate: the cache hit
	// reports a zero Window (no simulation happened), which is accurate.
	if _, err := r.RunApp("bad_dot_product", opt, 4, false); err != nil {
		t.Fatal(err)
	}
	if after := r.WindowSummary(); after != sum {
		t.Errorf("cache hit changed the summary:\n before %+v\n after  %+v", sum, after)
	}
}
