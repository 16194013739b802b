package main

import (
	"fmt"
	"math/rand"
	"strconv"

	ghostwriter "ghostwriter"
	"ghostwriter/internal/mem"
	"ghostwriter/internal/trace"
)

// Address layout of a sharing_storm trace: each component pattern gets its
// own block-aligned region, and the replay machine reserves all of them.
const (
	stormRandomBase = 0x2_0000
	stormRandomSpan = 1024 // a small shared span: nearly every access misses
	stormPathBase   = 0x2_1000
	stormFalseBase  = 0x2_2000
	stormEnd        = 0x2_3000
	stormThreads    = 64
	stormChunk      = 8 // ops per interleaved chunk
)

// stormCell is one replay: a seeded mixed trace under one protocol on the
// 64-node torus.
type stormCell struct {
	name  string
	proto ghostwriter.Protocol
	tr    *trace.Trace
	ops   uint64 // memory ops in tr
}

// system builds the cell's machine; caches start empty.
func (c *stormCell) system() *ghostwriter.System {
	sys := ghostwriter.New(ghostwriter.Config{Protocol: c.proto, Topo: "torus", Nodes: stormThreads})
	sys.Alloc(stormEnd, 64)
	return sys
}

// stormCells builds the seed's cells: two seeded mixes, each replayed
// under mesi and ghostwriter.
func stormCells(seed int64) []stormCell {
	var cells []stormCell
	for mix := int64(0); mix < 2; mix++ {
		tr := stormMix(seed*2 + mix)
		var ops uint64
		for _, th := range tr.Threads {
			for _, op := range th {
				if op.Width > 0 {
					ops++
				}
			}
		}
		for _, p := range []ghostwriter.Protocol{ghostwriter.Baseline, ghostwriter.Ghostwriter} {
			cells = append(cells, stormCell{name: fmt.Sprintf("mix%d/%s", mix, p), proto: p, tr: tr, ops: ops})
		}
	}
	return cells
}

// stormMix interleaves, per thread and in seeded chunk order, three
// patterns: uniform Random traffic over a small shared span (loads, stores
// and scribbles), PathologicalSharing on one word, and FalseSharing.
func stormMix(seed int64) *trace.Trace {
	pc := func(base mem.Addr, rounds int) trace.PatternConfig {
		return trace.PatternConfig{Threads: stormThreads, Rounds: rounds, Base: base, DDist: 8, Scribble: true}
	}
	parts := []*trace.Trace{
		trace.Random(pc(stormRandomBase, 160), seed, stormRandomSpan),
		trace.PathologicalSharing(pc(stormPathBase, 40)),
		trace.FalseSharing(pc(stormFalseBase, 40)),
	}
	out := &trace.Trace{Threads: make([][]trace.Op, stormThreads)}
	for id := range out.Threads {
		rng := rand.New(rand.NewSource(seed*stormThreads + int64(id)))
		var chunks [][]trace.Op
		for _, p := range parts {
			ops := p.Threads[id]
			for i := 0; i < len(ops); i += stormChunk {
				chunks = append(chunks, ops[i:min(i+stormChunk, len(ops))])
			}
		}
		for _, i := range rng.Perm(len(chunks)) {
			out.Threads[id] = append(out.Threads[id], chunks[i]...)
		}
	}
	return out
}

// sharingStorm replays seeded sharing-heavy traces on a 64-node torus: about
// half of all L1 accesses miss, so the timing wheel, the NoC and the
// directory do the work and the kernel handoff little.
type sharingStorm struct {
	o       options
	cells   []stormCell
	want    map[string]string // pinned, or the first pass's digests
	systems []*ghostwriter.System
	cycles  []uint64
}

func newSharingStorm(o options) workload { return &sharingStorm{o: o} }

func (w *sharingStorm) prepare() error {
	w.want = pinned.Storm[strconv.FormatInt(w.o.seed, 10)]
	return nil
}

// setup generates the seeded traces and builds one fresh machine per cell,
// in a seeded order.
func (w *sharingStorm) setup(pass int) error {
	cells := stormCells(w.o.seed)
	if w.o.tiny {
		cells = cells[:2]
	}
	rng := passRand(w.o.seed, pass)
	w.cells = w.cells[:0]
	for _, i := range rng.Perm(len(cells)) {
		w.cells = append(w.cells, cells[i])
	}
	w.systems = make([]*ghostwriter.System, len(w.cells))
	for i := range w.cells {
		w.systems[i] = w.cells[i].system()
	}
	w.cycles = make([]uint64, len(w.cells))
	return nil
}

func (w *sharingStorm) run(tr *tracer, t *tally) {
	durs := make([]float64, len(w.cells))
	parallel(len(w.cells), func(i int) {
		c, sys := &w.cells[i], w.systems[i]
		sp := tr.begin("machine.run", tr.newTrace(), 0)
		start := nowNS()
		w.cycles[i] = sys.Run(c.tr.NumThreads(), c.tr.Kernel())
		durs[i] = ms(nowNS() - start)
		tr.end(sp, runArgs(sys))
	})
	for i, sys := range w.systems {
		t.cells = append(t.cells, durs[i])
		t.simOps += simOps(sys.Stats())
		t.simCycles += w.cycles[i]
	}
}

// verify checks each replay's digest (pinned seeds) or its agreement with
// the run's first replay of the same trace (other seeds), that every traced
// op executed, and the coherence invariants.
func (w *sharingStorm) verify(t *tally) {
	first := w.want == nil
	if first {
		w.want = map[string]string{}
	}
	for i, sys := range w.systems {
		c := &w.cells[i]
		got := replayDigest(w.cycles[i], sys.Stats(), sys.Energy())
		var err error
		want, ok := w.want[c.name]
		switch {
		case !ok && first:
			w.want[c.name] = got
		case !ok:
			err = fmt.Errorf("no reference digest")
		case got != want:
			err = fmt.Errorf("digest %s, want %s", got, want)
		}
		if n := simOps(sys.Stats()); err == nil && n != c.ops {
			err = fmt.Errorf("executed %d of %d traced ops", n, c.ops)
		}
		if err == nil {
			err = sys.CheckInvariants(c.proto == ghostwriter.Baseline)
		}
		t.check("storm "+c.name, err)
	}
	w.systems = nil
}

func (w *sharingStorm) finish(*tally) {}
