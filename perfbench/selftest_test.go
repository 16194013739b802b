package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks against.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestSelfTest runs every workload at tiny size, untraced and traced, and
// checks that each run is correct — every output matched its pinned
// reference digest — and that every metric BENCHMARK.json names is printed
// and reported with its unit.
func TestSelfTest(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	t.Setenv("TMPDIR", t.TempDir())
	names := []string{"fleet"} // runnable, though not in the gated set
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	for _, name := range names {
		for _, traced := range []bool{false, true} {
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			o := options{workload: name, seed: defaultSeed, seconds: 1, trace: traced, spansDir: t.TempDir(), tiny: true}
			var out bytes.Buffer
			res, err := run(o, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s",
					name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			printed := map[string]string{}
			for _, line := range strings.Split(out.String(), "\n") {
				if f := strings.Fields(line); len(f) >= 3 {
					printed[f[0]] = f[2]
				}
			}
			for _, m := range want {
				if got, ok := res.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, m.Name, got, m.Unit)
				}
				if printed[m.Name] != m.Unit {
					t.Errorf("%s traced=%v: metric %s printed with unit %q, want %q", name, traced, m.Name, printed[m.Name], m.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics reported, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(want))
			}
		}
	}
}

// TestHeldOutSeed checks the sharing_storm replays of the held-out seed
// against their own pinned digests.
func TestHeldOutSeed(t *testing.T) {
	if _, ok := pinned.Storm[strconv.FormatInt(heldOutSeed, 10)]; !ok {
		t.Fatal("held-out seed has no pinned digests")
	}
	res, err := run(options{workload: "sharing_storm", seed: heldOutSeed, seconds: 1, tiny: true}, &bytes.Buffer{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("held-out seed: %d of %d checks failed", res.Failed, res.Attempted)
	}
}

// TestBlockTail checks that the tail is taken per block of whole passes, so
// its percentile stays p90 whatever a run's cell count.
func TestBlockTail(t *testing.T) {
	// 30 passes of 40 cells: blocks of 3 passes (120 cells), the last
	// three passes short of a block.
	var cells []float64
	var ends []int
	for pass := 0; pass < 30; pass++ {
		for i := 0; i < 40; i++ {
			cells = append(cells, float64(pass/3*1000+i))
		}
		ends = append(ends, len(cells))
	}
	v, p, n := blockTail(cells, ends)
	// Block b holds b*1000 + {0..39} three times; its p90 is b*1000+35.
	if n != 10 || p != 90 || v != 4535 {
		t.Errorf("blockTail = %v, p%v, %d blocks; want 4535, p90, 10 blocks", v, p, n)
	}
	// Too few cells for a block: the pooled tail of 40 cells is their p50.
	if v, p, n := blockTail(cells[:40], ends[:1]); n != 0 || p != 50 || v != 19 {
		t.Errorf("blockTail of one short pass = %v, p%v, %d blocks; want the pooled p50 19, 0 blocks", v, p, n)
	}
}
