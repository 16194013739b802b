package machine

import (
	"math/rand"
	"runtime"
	"testing"

	"ghostwriter/internal/cache"
	"ghostwriter/internal/coherence"
	"ghostwriter/internal/mem"
	"ghostwriter/internal/stats"
)

// TestErrorBoundCapsResidency checks the §3.5 drift monitor: with a bound
// of K hidden writes, a GS residency escalates after K absorbed stores,
// publishing the block.
func TestErrorBoundCapsResidency(t *testing.T) {
	run := func(bound uint32) (serviced, escalations uint64, coherent uint32) {
		cfg := DefaultConfig()
		cfg.Ghostwriter = true
		cfg.ErrorBound = bound
		m := New(cfg)
		a := m.AllocPadded(64)
		m.Run(2, func(th *Thread) {
			th.SetApproxDist(4)
			th.Load32(a) // both threads share the block
			th.Barrier()
			if th.ID() == 1 {
				// 20 similar scribbles: +1 steps stay within 4-distance of
				// the *current block content* most of the time.
				var v uint32
				for i := 0; i < 20; i++ {
					v++
					th.Scribble32(a, v)
				}
			}
			th.Barrier()
		})
		return m.Stats().ServicedByGS, m.Stats().BoundEscalations,
			uint32(m.ReadCoherent(a, 4))
	}

	unboundedServiced, unboundedEsc, unboundedVal := run(0)
	boundedServiced, boundedEsc, boundedVal := run(4)

	if unboundedEsc != 0 {
		t.Fatalf("bound disabled but %d escalations", unboundedEsc)
	}
	if boundedEsc == 0 {
		t.Fatal("bound of 4 never escalated across 20 hidden writes")
	}
	if boundedServiced >= unboundedServiced {
		t.Errorf("bounded run serviced %d >= unbounded %d", boundedServiced, unboundedServiced)
	}
	// The bounded run publishes intermediate values, so the coherent view
	// tracks the hidden counter much more closely.
	if boundedVal < unboundedVal {
		t.Errorf("bounded coherent value %d should be at least unbounded %d",
			boundedVal, unboundedVal)
	}
	if boundedVal < 16 {
		t.Errorf("bounded coherent value %d; escalations every 4 writes should publish ≥ 16", boundedVal)
	}
}

// TestMSIBaseProtocol checks the MSI variant: a cold load is granted S (no
// Exclusive state), so the following store needs an UPGRADE even with no
// other sharers — and Ghostwriter still retrofits on top.
func TestMSIBaseProtocol(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MSI = true
	cfg.Ghostwriter = true
	m := New(cfg)
	a := m.AllocPadded(64)
	m.Run(1, func(th *Thread) {
		th.Load32(a)
		if st, _ := stateOf(m, 0, a); st != cache.Shared {
			t.Errorf("cold load under MSI: %v, want S", st)
		}
		th.Store32(a, 5)
		th.Sync()
		if st, _ := stateOf(m, 0, a); st != cache.Modified {
			t.Errorf("store under MSI: %v, want M", st)
		}
		// A similar scribble after an invalidation-free S re-load enters GS
		// exactly as under MESI.
		th.SetApproxDist(4)
	})
	if m.Stats().Msgs[0 /* GETS */] == 0 {
		t.Error("no GETS recorded")
	}
	if err := m.CheckInvariants(false); err != nil {
		t.Fatal(err)
	}

	// The same single-threaded program under MESI needs no UPGRADE (E→M is
	// silent); under MSI it does.
	mesi := New(DefaultConfig())
	b := mesi.AllocPadded(64)
	mesi.Run(1, func(th *Thread) { th.Load32(b); th.Store32(b, 5) })
	if got := m.Stats().L1StoreMisses; got == 0 {
		t.Error("MSI store on S must miss")
	}
	if got := mesi.Stats().L1StoreMisses; got != 0 {
		t.Errorf("MESI store on E must hit, got %d misses", got)
	}
}

// TestMigrationForfeitsApproxState checks §3.5: a migrated thread leaves
// its approximate blocks behind — their hidden updates are not visible
// from the new core.
func TestMigrationForfeitsApproxState(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ghostwriter = true
	m := New(cfg)
	a := m.AllocPadded(64)
	var beforeMig, afterMig uint32
	m.Run(2, func(th *Thread) {
		th.SetApproxDist(4)
		switch th.ID() {
		case 0:
			th.Store32(a, 100)
			th.Barrier()
			th.Barrier()
		case 1:
			th.Barrier()
			th.Load32(a)          // S copy on core 1
			th.Scribble32(a, 101) // hidden in GS on core 1
			beforeMig = th.Load32(a)
			th.Migrate(7)
			if th.Core() != 7 {
				t.Errorf("thread on core %d after Migrate(7)", th.Core())
			}
			// The new core's cache is cold; the load fetches the coherent
			// copy, which never saw the hidden 101.
			afterMig = th.Load32(a)
			th.Barrier()
		}
	})
	if beforeMig != 101 {
		t.Fatalf("pre-migration read %d, want hidden 101", beforeMig)
	}
	if afterMig != 100 {
		t.Fatalf("post-migration read %d, want coherent 100 (update forfeited)", afterMig)
	}
}

func TestMigrationToOccupiedCorePanics(t *testing.T) {
	// The violation is detected in the engine, so the panic surfaces from
	// Run itself; the machine is unusable afterwards (as any panic leaves
	// it), which is fine for a validation test. The kernels parked at the
	// barrier must not outlive Run.
	before := runtime.NumGoroutine()
	defer func() {
		if recover() == nil {
			t.Error("migration onto a live thread's core must panic")
		}
		if n := runtime.NumGoroutine(); n > before {
			t.Errorf("%d goroutines after Run panicked, %d before: kernels leaked", n, before)
		}
	}()
	m := New(DefaultConfig())
	m.Run(2, func(th *Thread) {
		if th.ID() == 1 {
			th.Migrate(0) // core 0 is running thread 0
		}
		th.Barrier()
	})
}

// TestKernelPanicSurfacesFromRun: a kernel that panics mid-run makes Run
// re-panic on the caller's goroutine with the kernel's own value, and the
// other kernels, parked at a barrier or waiting on a load, are reclaimed
// rather than leaked.
func TestKernelPanicSurfacesFromRun(t *testing.T) {
	type boom struct{ id int }
	before := runtime.NumGoroutine()
	var got any
	func() {
		defer func() { got = recover() }()
		m := New(DefaultConfig())
		a := m.AllocPadded(4 * 8)
		m.Run(4, func(th *Thread) {
			th.Load64(a + mem.Addr(8*th.ID()))
			if th.ID() == 2 {
				panic(boom{th.ID()})
			}
			th.Barrier()
			th.Load64(a)
		})
	}()
	if got != (boom{2}) {
		t.Fatalf("Run panicked with %v, want the kernel's boom{2}", got)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("%d goroutines after Run panicked, %d before: kernels leaked", n, before)
	}
}

// TestBaselineUnaffectedByKnobs: the error bound and policy knobs must not
// change baseline (non-Ghostwriter) executions at all.
func TestBaselineUnaffectedByKnobs(t *testing.T) {
	run := func(cfg Config) (uint64, uint64) {
		m := New(cfg)
		a := m.AllocPadded(4 * 8)
		cycles := m.Run(4, func(th *Thread) {
			th.SetApproxDist(4)
			mine := a + mem.Addr(4*th.ID())
			var v uint32
			for i := 0; i < 100; i++ {
				v++
				th.Scribble32(mine, v)
			}
		})
		return cycles, m.Stats().TotalMsgs()
	}
	base := DefaultConfig()
	withKnobs := DefaultConfig()
	withKnobs.ErrorBound = 3
	withKnobs.Policy = coherence.PolicyEscalate
	c1, m1 := run(base)
	c2, m2 := run(withKnobs)
	if c1 != c2 || m1 != m2 {
		t.Fatalf("baseline changed under knobs: cycles %d vs %d, msgs %d vs %d", c1, c2, m1, m2)
	}
}

// TestL2CapacityRecall squeezes a working set through a tiny L2 bank and
// checks that recalls fire, no data is lost, and the invariants hold.
func TestL2CapacityRecall(t *testing.T) {
	cfg := DefaultConfig()
	// 4 cores, tiny banks: 8 blocks per bank across 4 banks = 32 blocks of
	// L2, far below the 64-block working set.
	cfg.Cores = 8
	cfg.L2PerCoreBytes = 4 * 64 // = 8 blocks per bank after the /4 split
	m := New(cfg)
	const blocks = 64
	base := m.AllocPadded(64 * blocks)
	m.Run(4, func(th *Thread) {
		// Each thread writes its share of blocks, then everyone reads
		// everything back twice (forcing refetches through the tiny L2).
		for b := th.ID(); b < blocks; b += th.N() {
			th.Store32(base+mem.Addr(64*b), uint32(1000+b))
		}
		th.Barrier()
		for round := 0; round < 2; round++ {
			for b := 0; b < blocks; b++ {
				if got := th.Load32(base + mem.Addr(64*b)); got != uint32(1000+b) {
					t.Errorf("thread %d round %d: block %d = %d", th.ID(), round, b, got)
					return
				}
			}
			th.Barrier()
		}
	})
	if m.Stats().L2Recalls == 0 {
		t.Fatal("tiny L2 never recalled a line")
	}
	if err := m.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < blocks; b++ {
		if got := m.ReadCoherent(base+mem.Addr(64*b), 4); got != uint64(1000+b) {
			t.Fatalf("block %d lost through recall: %d", b, got)
		}
	}
	t.Logf("recalls: %d", m.Stats().L2Recalls)
}

// TestL2RecallStress hammers a tiny L2 with random mixed traffic under
// both protocols and validates invariants and load-value safety.
func TestL2RecallStress(t *testing.T) {
	for _, gw := range []bool{false, true} {
		gw := gw
		name := "baseline"
		if gw {
			name = "ghostwriter"
		}
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Cores = 8
			cfg.Ghostwriter = gw
			cfg.GITimeout = 256
			cfg.L2PerCoreBytes = 2 * 64
			m := New(cfg)
			const words = 1024 // 64 blocks vs 4 blocks of L2 per bank
			a := m.AllocPadded(4 * words)
			m.Run(8, func(th *Thread) {
				rng := rand.New(rand.NewSource(int64(77 + th.ID())))
				if gw {
					th.SetApproxDist(4)
				}
				for i := 0; i < 300; i++ {
					w := rng.Intn(words)
					addr := a + mem.Addr(4*w)
					switch rng.Intn(3) {
					case 0:
						th.Load32(addr)
					case 1:
						th.Store32(addr, uint32(rng.Intn(1<<16)))
					case 2:
						if gw {
							th.Scribble32(addr, uint32(rng.Intn(1<<16)))
						} else {
							th.Store32(addr, uint32(rng.Intn(1<<16)))
						}
					}
				}
			})
			if m.Stats().L2Recalls == 0 {
				t.Error("stress never triggered a recall")
			}
			if err := m.CheckInvariants(!gw); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMigratoryOptimization checks the §5 related-work baseline: with the
// Stenström-style optimization on, a classified migratory block's reader is
// granted ownership directly, eliminating the follow-up UPGRADE.
func TestMigratoryOptimization(t *testing.T) {
	run := func(opt bool) (upgrades, msgs uint64, v uint32) {
		cfg := DefaultConfig()
		cfg.MigratoryOpt = opt
		m := New(cfg)
		a := m.AllocPadded(64)
		m.Run(2, func(th *Thread) {
			// Strict read-then-write handoff between the two cores.
			for round := 0; round < 30; round++ {
				if round%2 == th.ID() {
					cur := th.Load32(a)
					th.Store32(a, cur+1)
				}
				th.Barrier()
			}
		})
		return m.Stats().Msgs[stats.MsgUPGRADE], m.Stats().TotalMsgs(),
			uint32(m.ReadCoherent(a, 4))
	}
	baseUpg, baseMsgs, baseVal := run(false)
	optUpg, optMsgs, optVal := run(true)
	if baseVal != 30 || optVal != 30 {
		t.Fatalf("migratory counters wrong: base=%d opt=%d", baseVal, optVal)
	}
	if optUpg >= baseUpg {
		t.Errorf("optimization did not cut UPGRADEs: %d vs %d", optUpg, baseUpg)
	}
	if optMsgs >= baseMsgs {
		t.Errorf("optimization did not cut traffic: %d vs %d", optMsgs, baseMsgs)
	}
	t.Logf("migratory: UPGRADEs %d→%d, traffic %d→%d", baseUpg, optUpg, baseMsgs, optMsgs)
}

// TestMigratoryOptDoesNotBreakSharing: a genuinely read-shared block must
// not be monopolized by the optimization.
func TestMigratoryOptDoesNotBreakSharing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MigratoryOpt = true
	m := New(cfg)
	a := m.AllocPadded(64)
	bad := false
	m.Run(4, func(th *Thread) {
		if th.ID() == 0 {
			th.Store32(a, 123)
		}
		th.Barrier()
		// All threads read repeatedly: pure read sharing.
		for i := 0; i < 20; i++ {
			if th.Load32(a) != 123 {
				bad = true
			}
		}
		th.Barrier()
	})
	if bad {
		t.Fatal("read sharing corrupted")
	}
	if err := m.CheckInvariants(true); err != nil {
		t.Fatal(err)
	}
}

// TestFetchAddIsAtomic hammers one counter from every thread; the final
// value must be exact — fetch-add acquires exclusive ownership per update
// regardless of interleaving.
func TestFetchAddIsAtomic(t *testing.T) {
	for _, gw := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.Ghostwriter = gw
		m := New(cfg)
		a := m.AllocPadded(8)
		const perThread = 150
		tickets := make(map[uint32]bool)
		var mu [24][]uint32 // per-thread ticket logs (no host sharing)
		m.Run(8, func(th *Thread) {
			if gw {
				th.SetApproxDist(8) // must not affect atomics
			}
			for i := 0; i < perThread; i++ {
				old := th.FetchAdd32(a, 1)
				mu[th.ID()] = append(mu[th.ID()], old)
			}
		})
		if got := m.ReadCoherent(a, 4); got != 8*perThread {
			t.Fatalf("gw=%v: counter = %d, want %d", gw, got, 8*perThread)
		}
		// Every fetched ticket is unique: atomicity held.
		for tid := 0; tid < 8; tid++ {
			for _, v := range mu[tid] {
				if tickets[v] {
					t.Fatalf("gw=%v: ticket %d issued twice", gw, v)
				}
				tickets[v] = true
			}
		}
	}
}

// TestTicketLock builds a ticket lock from FetchAdd and verifies mutual
// exclusion via an unprotected critical-section counter.
func TestTicketLock(t *testing.T) {
	m := New(DefaultConfig())
	next := m.AllocPadded(4)
	serving := m.AllocPadded(4)
	shared := m.AllocPadded(4)
	const perThread = 25
	m.Run(4, func(th *Thread) {
		for i := 0; i < perThread; i++ {
			ticket := th.FetchAdd32(next, 1)
			for th.Load32(serving) != ticket {
				th.Compute(8) // backoff
			}
			// Critical section: unprotected read-modify-write, safe only
			// under mutual exclusion.
			v := th.Load32(shared)
			th.Compute(3)
			th.Store32(shared, v+1)
			th.Store32(serving, ticket+1)
		}
	})
	if got := m.ReadCoherent(shared, 4); got != 4*perThread {
		t.Fatalf("critical section raced: %d, want %d", got, 4*perThread)
	}
}

// TestAdaptiveGITimeout: under sustained GI churn the controller shortens
// its sweep period; with no GI activity it backs off.
func TestAdaptiveGITimeout(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ghostwriter = true
	cfg.GITimeout = 512
	cfg.AdaptiveGITimeout = true
	m := New(cfg)
	a := m.AllocPadded(64 * 4)
	m.Run(2, func(th *Thread) {
		th.SetApproxDist(8)
		switch th.ID() {
		case 0:
			// Keep invalidating thread 1's copies so its scribbles keep
			// resurrecting GI residencies across several blocks.
			for i := 0; i < 400; i++ {
				th.Store32(a+mem.Addr(64*(i%4)), uint32(i))
			}
			th.Barrier()
		case 1:
			// Store-through scribbles with constant values: after thread
			// 0's invalidations these land on I-with-tag, pass the scribe
			// against their own stale copies, and resurrect GI residencies
			// that only the sweep can end — so every sweep finds several.
			for i := 0; i < 400; i++ {
				blk := a + mem.Addr(64*(i%4))
				th.Scribble32(blk, 7)
				th.Compute(12)
			}
			th.Barrier()
		}
	})
	adapted := m.L1(1).CurrentGITimeout()
	if adapted >= 512 {
		t.Fatalf("busy controller's timeout %d did not shrink below 512", adapted)
	}
	// An idle controller (core 5 ran nothing) should have backed off.
	if idle := m.L1(5).CurrentGITimeout(); idle <= 512 {
		t.Fatalf("idle controller's timeout %d did not grow above 512", idle)
	}
	t.Logf("busy=%d idle=%d", adapted, m.L1(5).CurrentGITimeout())
}

// TestStaleLoads checks the Rengasamy-style load-side approximation (§5's
// prior work): inside an approximate region, a load to an invalidated block
// executes on stale data without a GETS; outside the region it refetches.
func TestStaleLoads(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ghostwriter = true
	cfg.StaleLoads = true
	m := New(cfg)
	a := m.AllocPadded(64)
	var staleRead, preciseRead uint32
	m.Run(2, func(th *Thread) {
		switch th.ID() {
		case 0:
			th.Store32(a, 5)
			th.Barrier()
			th.Barrier()
			th.Store32(a, 9) // invalidate thread 1's copy
			th.Barrier()
			th.Barrier()
		case 1:
			th.Barrier()
			th.Load32(a) // cache the 5
			th.Barrier()
			th.Barrier()
			th.SetApproxDist(4)
			staleRead = th.Load32(a) // approx region: stale 5, no GETS
			th.SetApproxDist(-1)
			preciseRead = th.Load32(a) // precise: refetch the coherent 9
			th.Barrier()
		}
	})
	if staleRead != 5 {
		t.Fatalf("approximate load read %d, want stale 5", staleRead)
	}
	if preciseRead != 9 {
		t.Fatalf("precise load read %d, want coherent 9", preciseRead)
	}
	if m.Stats().StaleLoadHits != 1 {
		t.Fatalf("StaleLoadHits = %d, want 1", m.Stats().StaleLoadHits)
	}
}

// TestStaleLoadsOffByDefault: without the knob, invalidated blocks always
// refetch.
func TestStaleLoadsOffByDefault(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Ghostwriter = true
	m := New(cfg)
	a := m.AllocPadded(64)
	var got uint32
	m.Run(2, func(th *Thread) {
		switch th.ID() {
		case 0:
			th.Store32(a, 5)
			th.Barrier()
			th.Barrier()
			th.Store32(a, 9)
			th.Barrier()
		case 1:
			th.Barrier()
			th.Load32(a)
			th.Barrier()
			th.Barrier()
			th.SetApproxDist(4)
			got = th.Load32(a)
		}
	})
	if got != 9 {
		t.Fatalf("load read %d, want coherent 9", got)
	}
	if m.Stats().StaleLoadHits != 0 {
		t.Fatal("stale loads fired while disabled")
	}
}
