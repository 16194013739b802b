package main

import (
	"fmt"

	"ghostwriter/internal/coherence/check"
	"ghostwriter/internal/coherence/mutate"
	"ghostwriter/internal/coherence/proto"
)

// sweep is one exhaustive checker sweep: a registered protocol under one
// stage of its mutation kill grid.
type sweep struct {
	name  string // "protocol/grid"
	grid  string
	proto *proto.Protocol
	cfg   check.Config
}

// checkSweeps resolves every registered protocol and lays out its grid.
func checkSweeps() []sweep {
	var out []sweep
	for _, name := range proto.Names() {
		p := proto.MustLookup(name)
		for _, g := range mutate.Grid(p) {
			out = append(out, sweep{name: name + "/" + g.Name, grid: g.Name, proto: p, cfg: g.Cfg})
		}
	}
	return out
}

// modelCheck runs check.Explore over mutate.Grid(p) for every registered
// protocol: real L1, directory and NoC code on a fresh testbed per
// schedule, with no kernel handoff. It is exhaustive; the seed only orders
// the sweeps.
type modelCheck struct {
	o       options
	sweeps  []sweep
	results []check.Result
}

func newModelCheck(o options) workload { return &modelCheck{o: o} }

func (w *modelCheck) prepare() error { return nil }

// setup validates every registered table, lays out the kill grids in a
// seeded order and smoke-runs each grid's one-step schedules.
func (w *modelCheck) setup(pass int) error {
	all := checkSweeps()
	if w.o.tiny {
		all = all[:0]
		for _, s := range checkSweeps() {
			if s.proto.Name == "ghostwriter" {
				all = append(all, s)
			}
		}
	}
	for _, name := range proto.Names() {
		if err := mutate.Validate(proto.MustLookup(name)); err != nil {
			return err
		}
	}
	// Smoke-run every one-step schedule of every sweep on a fresh testbed:
	// a broken table fails here in milliseconds, not mid-sweep.
	for _, s := range all {
		ops := s.cfg.Ops
		if len(ops) == 0 {
			ops = []check.Opcode{check.Load, check.Store, check.StoreApprox, check.ScribbleNear, check.ScribbleFar}
		}
		for core := 0; core < s.cfg.Cores; core++ {
			for _, op := range ops {
				for a := range s.cfg.Addrs {
					if v := check.RunSchedule(s.cfg, []check.Step{{Core: core, Op: op, Addr: a}}); v != nil {
						return fmt.Errorf("%s: %s", s.name, v)
					}
				}
			}
		}
	}
	rng := passRand(w.o.seed, pass)
	w.sweeps = w.sweeps[:0]
	for _, i := range rng.Perm(len(all)) {
		w.sweeps = append(w.sweeps, all[i])
	}
	w.results = make([]check.Result, len(w.sweeps))
	return nil
}

func (w *modelCheck) run(tr *tracer, t *tally) {
	durs := make([]float64, len(w.sweeps))
	parallel(len(w.sweeps), func(i int) {
		s := &w.sweeps[i]
		sp := tr.begin("check.explore."+s.grid, tr.newTrace(), 0)
		start := nowNS()
		w.results[i] = check.Explore(s.cfg)
		durs[i] = ms(nowNS() - start)
		tr.end(sp, map[string]float64{"schedules": float64(w.results[i].Schedules)})
	})
	for i, r := range w.results {
		t.cells = append(t.cells, durs[i])
		t.schedules += uint64(r.Schedules)
		t.steps += uint64(r.Schedules * w.sweeps[i].cfg.Depth)
	}
}

// verify requires every sweep to be violation-free, to match its pinned
// digest, and — for full-alphabet sequential sweeps — to reach every
// approximate state its table defines.
func (w *modelCheck) verify(t *tally) {
	for i := range w.sweeps {
		s, r := &w.sweeps[i], &w.results[i]
		var err error
		switch want, ok := pinned.Check[s.name]; {
		case len(r.Violations) > 0:
			err = fmt.Errorf("%d violations, first %s", len(r.Violations), r.Violations[0])
		case !ok:
			err = fmt.Errorf("no pinned digest")
		case sweepDigest(r) != want:
			err = fmt.Errorf("digest %s, pinned %s", sweepDigest(r), want)
		case s.cfg.Sequential && len(s.cfg.Ops) == 0:
			err = check.CoverageErr(s.proto, *r)
		}
		t.check("sweep "+s.name, err)
	}
}

func (w *modelCheck) finish(*tally) {}
