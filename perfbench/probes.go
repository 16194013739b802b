package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"

	ghostwriter "ghostwriter"
	"ghostwriter/internal/cache"
	"ghostwriter/internal/coherence/check"
	"ghostwriter/internal/coherence/mutate"
	"ghostwriter/internal/coherence/proto"
	"ghostwriter/internal/energy"
	"ghostwriter/internal/harness"
	"ghostwriter/internal/machine"
	"ghostwriter/internal/mem"
	"ghostwriter/internal/noc"
	"ghostwriter/internal/sim"
	"ghostwriter/internal/stats"
	"ghostwriter/internal/wal"
)

// probeResult is one ledger entry's cost per call.
type probeResult struct {
	ns, allocs, bytes float64
}

// probe times fn, which makes calls calls into one layer, and records a
// span for it. The GC runs first so a previous probe's garbage is not
// collected on this one's clock.
func probe(tr *tracer, name string, calls int, fn func()) probeResult {
	var a, b runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&a)
	sp := tr.begin("probe."+name, tr.newTrace(), 0)
	start := nowNS()
	fn()
	d := nowNS() - start
	runtime.ReadMemStats(&b)
	n := float64(calls)
	r := probeResult{
		ns:     float64(d) / n,
		allocs: float64(b.Mallocs-a.Mallocs) / n,
		bytes:  float64(b.TotalAlloc-a.TotalAlloc) / n,
	}
	tr.end(sp, map[string]float64{"calls": n, "ns_per_call": r.ns, "allocs_per_call": r.allocs, "bytes_per_call": r.bytes})
	return r
}

// runProbes is the layer-probe ledger: one fixed-size microbenchmark per
// layer boundary, the same on every workload. Its spans also stand in for
// layers a workload does not call (see tracer.named). Failed checks are
// counted in t.
func runProbes(tr *tracer, tiny bool, t *tally) map[string]float64 {
	scale := 1
	if tiny {
		scale = 20
	}
	out := map[string]float64{}

	// Timing wheel: schedule + fire, in batches the wheel holds.
	{
		eng := &sim.Engine{}
		h := func(any) {}
		const batch = 256
		rounds := 800 / scale
		wheel := func(rounds int) {
			for r := 0; r < rounds; r++ {
				now := eng.Now()
				for i := 0; i < batch; i++ {
					eng.AtArg(now+sim.Cycle(1+i%97), h, nil)
				}
				eng.Drain(math.MaxUint64)
			}
		}
		wheel(4) // fill the event free list
		r := probe(tr, "sim.event", rounds*batch, func() { wheel(rounds) })
		out["sim.event_ns"], out["sim.event_allocs"] = r.ns, r.allocs
	}

	// Kernel handoff + L1 hit: one thread re-loading a private resident
	// block; the first load's miss is amortized away.
	{
		n := 100_000 / scale
		sys := ghostwriter.New(ghostwriter.Config{})
		a := sys.AllocPadded(64)
		loads := func(n int) ghostwriter.Kernel {
			return func(th *ghostwriter.Thread) {
				for i := 0; i < n; i++ {
					th.Load32(a)
				}
			}
		}
		sys.Run(1, loads(100))
		sys.ResetStats()
		r := probe(tr, "machine.hit_op", n, func() { probeRun(tr, sys, 1, loads(n)) })
		out["machine.hit_op_ns"], out["machine.hit_op_allocs"] = r.ns, r.allocs
	}

	// Directory miss: two threads storing to one block ping-pong it.
	{
		n := 20_000 / scale
		sys := ghostwriter.New(ghostwriter.Config{})
		a := sys.AllocPadded(64)
		r := probe(tr, "machine.miss_op", 2*n, func() {
			probeRun(tr, sys, 2, func(th *ghostwriter.Thread) {
				for i := 0; i < n; i++ {
					th.Store32(a, uint32(i))
				}
			})
		})
		out["machine.miss_op_ns"], out["machine.miss_op_allocs"] = r.ns, r.allocs
	}

	// NoC send + delivery on the Table 1 mesh and a 64-node torus.
	for _, nc := range []struct {
		name string
		cfg  noc.Config
	}{{"mesh24", noc.DefaultConfig()}, {"torus64", mustGeometry("torus", 64)}} {
		eng := &sim.Engine{}
		net := noc.New(eng, nc.cfg, &energy.Meter{}, &stats.Stats{})
		for id := 0; id < net.Nodes(); id++ {
			net.Register(noc.NodeID(id), func(any) {})
		}
		rng := rand.New(rand.NewSource(1))
		var src, dst [1024]noc.NodeID
		for i := range src {
			src[i], dst[i] = noc.NodeID(rng.Intn(net.Nodes())), noc.NodeID(rng.Intn(net.Nodes()))
		}
		sends := func(n int) {
			for i := 0; i < n; i++ {
				net.Send(src[i%1024], dst[i%1024], 64, nil)
				if i%256 == 255 {
					eng.Drain(math.MaxUint64)
				}
			}
			eng.Drain(math.MaxUint64)
		}
		sends(1024)
		n := 200_000 / scale
		r := probe(tr, "noc.send."+nc.name, n, func() { sends(n) })
		out["noc.send_ns."+nc.name] = r.ns
		if nc.name == "mesh24" {
			out["noc.send_allocs"] = r.allocs
		}
	}

	// L1 array lookup: the first 512 blocks fill every way of the
	// 32 KiB 2-way array, so half the lookups hit and half miss.
	{
		c := cache.New(machine.DefaultConfig().L1)
		var addrs [1024]mem.Addr
		for i := range addrs {
			addrs[i] = mem.Addr(i * 64)
			if i < 512 {
				c.Install(c.VictimWay(addrs[i]), addrs[i], cache.Shared, nil)
			}
		}
		n := 2048 / scale * 1024
		hits := 0
		r := probe(tr, "cache.lookup", n, func() {
			for i := 0; i < n; i++ {
				if c.Lookup(addrs[i%1024]) != nil {
					hits++
				}
			}
		})
		if hits != n/2 {
			t.check("probe cache.lookup", fmt.Errorf("%d hits of %d lookups, want half", hits, n))
		}
		out["cache.lookup_ns"], out["cache.lookup_allocs"] = r.ns, r.allocs
	}

	// WAL append + fsync, the durable dispatcher's per-transition cost.
	{
		n := 200 / scale
		dir, err := os.MkdirTemp("", "perfbench-wal-*")
		var st *wal.Store
		if err == nil {
			st, _, err = wal.Open(dir, nil)
		}
		if err == nil {
			payload := []byte(`{"t":"complete","key":"` + paperSpec("pca", 8).Key() + `"}`)
			r := probe(tr, "wal.append_sync", n, func() {
				for i := 0; i < n && err == nil; i++ {
					err = st.Append(payload, true)
				}
			})
			out["wal.append_sync_us"], out["wal.append_allocs"] = r.ns/1e3, r.allocs
			if cerr := st.Close(); err == nil {
				err = cerr
			}
		}
		if dir != "" {
			if rerr := os.RemoveAll(dir); err == nil {
				err = rerr
			}
		}
		t.check("probe wal.append_sync", err)
	}

	// Spec.Key: SHA-256 over the JSON of the spec and derived machine.
	{
		n := 20_000 / scale
		s := paperSpec("histogram", 8)
		var key string
		r := probe(tr, "harness.key", n, func() {
			for i := 0; i < n; i++ {
				key = s.Key()
			}
		})
		t.check("probe harness.key", keyErr(key))
		out["harness.key_us"], out["harness.key_allocs"] = r.ns/1e3, r.allocs
	}

	// Checker schedules: every stage of the ghostwriter kill grid.
	{
		p := proto.MustLookup("ghostwriter")
		var bytes, schedules float64
		for _, g := range mutate.Grid(p) {
			var res check.Result
			sp := tr.begin("check.explore."+g.Name, tr.newTrace(), 0)
			r := probe(tr, "check."+g.Name, 1, func() { res = check.Explore(g.Cfg) })
			tr.end(sp, map[string]float64{"schedules": float64(res.Schedules)})
			bytes += r.bytes
			schedules += float64(res.Schedules)
			var err error
			if want := pinned.Check["ghostwriter/"+g.Name]; sweepDigest(&res) != want {
				err = fmt.Errorf("digest %s, pinned %s", sweepDigest(&res), want)
			}
			t.check("probe check "+g.Name, err)
		}
		out["check.alloc_bytes_per_schedule"] = bytes / schedules
	}

	// One whole cell outside the Runner: the prepare/run/measure spans.
	s := paperSpec("blackscholes", 8)
	trace := tr.newTrace()
	root := tr.begin("cell", trace, 0)
	res, _, err := execCell(s, tr, trace, root.id)
	tr.end(root, nil)
	if err == nil {
		err = expectCell(s.Key(), &res)
	}
	t.check("probe cell", err)

	// An in-process durable gwcached round: submit, claim, complete, get.
	if err == nil {
		f := &fleet{exp: "fig1", ctr: installTransport(), results: map[string]*harness.RunResult{}, digests: map[string]string{}}
		items, merr := harness.Manifest(f.exp, harness.DefaultOptions())
		if merr == nil {
			for _, it := range items {
				f.results[it.Key], f.digests[it.Key] = &res, cellDigest(&res)
			}
			merr = f.setup(0)
		}
		if merr == nil {
			var scratch tally
			f.run(tr, &scratch)
			f.verify(&scratch)
			t.attempted += scratch.attempted
			t.failed += scratch.failed
			t.failures = append(t.failures, scratch.failures...)
		} else {
			t.check("probe gwcached", merr)
		}
	}
	return out
}

// probeRun is System.Run inside a machine.run span.
func probeRun(tr *tracer, sys *ghostwriter.System, n int, k ghostwriter.Kernel) {
	sp := tr.begin("machine.run", tr.newTrace(), 0)
	sys.Run(n, k)
	tr.end(sp, runArgs(sys))
}

func mustGeometry(topo string, nodes int) noc.Config {
	cfg, err := noc.Geometry(topo, nodes)
	if err != nil {
		panic(err)
	}
	return cfg
}

func keyErr(key string) error {
	if !harness.ValidKey(key) {
		return fmt.Errorf("malformed key %q", key)
	}
	return nil
}
