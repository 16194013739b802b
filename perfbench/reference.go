package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strconv"

	ghostwriter "ghostwriter"
	"ghostwriter/internal/coherence/check"
	"ghostwriter/internal/harness"
)

// heldOutSeed is the second pinned seed: never used while the benchmark
// was tuned, so a claim can be re-checked on inputs it was not fitted to.
const heldOutSeed = 2

// reference holds the pinned digests every run is checked against. They
// were computed with -write-reference on the commit that introduced the
// benchmark; a change that alters simulated results on purpose recomputes
// them and says so.
type reference struct {
	// Cells maps a harness.Spec key of the "all" manifest (which contains
	// every paper_suite cell) to its result digest.
	Cells map[string]string `json:"cells"`
	// Storm maps a pinned seed to each sharing_storm cell's digest.
	Storm map[string]map[string]string `json:"storm"`
	// Check maps "protocol/grid" to the checker sweep's digest.
	Check map[string]string `json:"check"`
}

//go:embed reference.json
var referenceJSON []byte

// pinned is the decoded reference, loaded once.
var pinned = func() *reference {
	var r reference
	if err := json.Unmarshal(referenceJSON, &r); err != nil {
		panic("perfbench: embedded reference.json: " + err.Error())
	}
	return &r
}()

// digest is a short SHA-256 over v's JSON form.
func digest(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic("perfbench: digest: " + err.Error())
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// cellDigest covers everything a cell computes: cycles, Stats, Energy and
// ErrorPct (RunResult's JSON form, which leaves out host-only counters).
func cellDigest(r *harness.RunResult) string { return digest(r) }

// replayDigest covers a sharing_storm replay's simulated outcome.
func replayDigest(cycles uint64, st *ghostwriter.Stats, en *ghostwriter.EnergyMeter) string {
	return digest(struct {
		Cycles uint64
		Stats  *ghostwriter.Stats
		Energy *ghostwriter.EnergyMeter
	}{cycles, st, en})
}

// sweepDigest covers a checker sweep: its fingerprint, size, coverage
// counters and violation count.
func sweepDigest(r *check.Result) string {
	return digest(struct {
		Schedules, Violations     int
		GS, GI, Fallbacks, Finger uint64
	}{r.Schedules, len(r.Violations), r.GSEntries, r.GIEntries, r.Fallbacks, r.Fingerprint})
}

// expectCell checks a cell result against its pinned digest.
func expectCell(key string, r *harness.RunResult) error {
	want, ok := pinned.Cells[key]
	if !ok {
		return fmt.Errorf("cell %s has no pinned digest", key[:12])
	}
	if got := cellDigest(r); got != want {
		return fmt.Errorf("cell %s %s d=%d: digest %s, pinned %s", key[:12], r.App, r.DDist, got, want)
	}
	return nil
}

// writeReference recomputes every pinned digest and writes them to path.
func writeReference(path string) error {
	ref := reference{Cells: map[string]string{}, Storm: map[string]map[string]string{}, Check: map[string]string{}}
	items, err := harness.Manifest("all", harness.DefaultOptions())
	if err != nil {
		return err
	}
	jobs := make([]harness.Job, len(items))
	for i, it := range items {
		jobs[i] = harness.Job{Label: it.Label, Spec: it.Spec}
	}
	for i, c := range harness.NewRunner(runtime.NumCPU()).Run(jobs) {
		if c.Err != nil {
			return fmt.Errorf("%s: %w", c.Job.Label, c.Err)
		}
		ref.Cells[items[i].Key] = cellDigest(&c.Result)
	}
	for _, seed := range []int64{defaultSeed, heldOutSeed} {
		cells := stormCells(seed)
		m := map[string]string{}
		for _, c := range cells {
			sys := c.system()
			cycles := sys.Run(c.tr.NumThreads(), c.tr.Kernel())
			m[c.name] = replayDigest(cycles, sys.Stats(), sys.Energy())
		}
		ref.Storm[strconv.FormatInt(seed, 10)] = m
	}
	for _, s := range checkSweeps() {
		r := check.Explore(s.cfg)
		ref.Check[s.name] = sweepDigest(&r)
	}
	b, err := json.MarshalIndent(ref, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
