package machine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"ghostwriter/internal/mem"
	"ghostwriter/internal/sim"
)

// Window-boundary pins at the machine level: Compute bursts of co-prime
// lengths walk the per-thread issue cycles across every residue of the
// lookahead grid, so memory operations land on window-edge cycles (the
// last cycle of one window, the first of the next) in every thread. The
// fingerprint is pinned to a golden per protocol.

// windowEdgeFingerprint is scribbleFingerprint's boundary-targeted twin:
// same observable hash, but the kernel staggers issue cycles with
// Compute(1..3) so ops cluster on window boundaries instead of being
// smeared by uniform memory latency.
func windowEdgeFingerprint(tb testing.TB, protocol string, seed uint64) string {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Protocol = protocol
	m := New(cfg)

	const (
		threads = 6
		blocks  = 16
		ops     = 160
	)
	region := m.AllocPadded(blocks * 64)
	for i := 0; i < blocks*64/8; i++ {
		m.WriteBackingUint(region+mem.Addr(8*i), 8, splitmix64(seed+uint64(i)))
	}

	elapsed := m.Run(threads, func(th *Thread) {
		r := splitmix64(seed ^ uint64(th.ID())*0xFEED)
		th.SetApproxDist(4)
		for i := 0; i < ops; i++ {
			r = splitmix64(r)
			// Burst lengths 1..3 are co-prime with the default lookahead
			// (2), so consecutive ops issue on alternating grid residues
			// and every thread repeatedly hits the window-edge cycle.
			th.Compute(1 + r%3)
			a := region + mem.Addr(r%uint64(blocks*64)&^3)
			switch r >> 32 % 8 {
			case 0, 1, 2:
				th.Scribble32(a, uint32(r))
			case 3, 4:
				th.Store32(a, uint32(r>>8))
			case 5, 6:
				th.Load32(a)
			default:
				th.FetchAdd32(region+mem.Addr(th.ID()%4*64), 1)
			}
			if i == ops/2 {
				th.Barrier()
			}
		}
		th.Barrier()
	})

	var b strings.Builder
	fmt.Fprintf(&b, "elapsed=%d cycles=%d\n", elapsed, m.Cycles())
	stj, err := json.Marshal(m.Stats())
	if err != nil {
		tb.Fatal(err)
	}
	b.Write(stj)
	e := m.Energy()
	fmt.Fprintf(&b, "\nenergy=%x/%x\n", e.MemoryPJ, e.NetworkPJ)
	crj, err := json.Marshal(m.CoreReport())
	if err != nil {
		tb.Fatal(err)
	}
	b.Write(crj)
	for i := 0; i < blocks*64/8; i++ {
		fmt.Fprintf(&b, "%x,", m.ReadCoherent(region+mem.Addr(8*i), 8))
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// TestWindowEdgeFingerprintAcrossShards pins the window-edge fingerprint
// of every registered protocol to its golden. The name dates from the
// shards 1 vs 2 vs 4 differential; the goldens are the hashes all of those
// agreed on.
func TestWindowEdgeFingerprintAcrossShards(t *testing.T) {
	for _, p := range fingerprintProtocols {
		p := p
		t.Run(p, func(t *testing.T) {
			if got := windowEdgeFingerprint(t, p, 0xB0DA); got != windowEdgeGolden[p] {
				t.Errorf("fingerprint %s, want golden %s", got, windowEdgeGolden[p])
			}
		})
	}
}

// TestWindowStatsRepeatable pins the observability counters: they are
// live on a cross-tile scribble run, and two runs of one configuration
// report identical values — the counters are a function of the simulated
// schedule, not of the host.
func TestWindowStatsRepeatable(t *testing.T) {
	stats := func() sim.WindowStats {
		m := New(DefaultConfig())
		region := m.AllocPadded(4 * 64)
		m.Run(4, func(th *Thread) {
			th.SetApproxDist(4)
			for i := 0; i < 50; i++ {
				th.Scribble32(region+mem.Addr(th.ID()%4*64), uint32(i))
				th.Load32(region + mem.Addr((th.ID()+1)%4*64))
			}
			th.Barrier()
		})
		return m.WindowStats()
	}
	first := stats()
	if first.Windows == 0 || first.Merges == 0 || first.Events == 0 || first.Staged == 0 {
		t.Errorf("window counters dead: %+v", first)
	}
	if again := stats(); again != first {
		t.Errorf("window counters differ between runs:\n first %+v\n again %+v", first, again)
	}
}
