package machine

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"

	"ghostwriter/internal/mem"
)

// fingerprintProtocols are the registered tables the fingerprint pins
// sweep — the same set as the harness protocol-ablation grid.
var fingerprintProtocols = []string{"mesi", "ghostwriter", "gw-noGI"}

// Fingerprint goldens. They were recorded while the simulator still had a
// sharded engine, where every shard count from 1 to 8 produced exactly
// these hashes. With one scheduling mode left, the pins are what keeps the
// window schedule — and every observable byte it determines — from
// drifting.
var (
	// scribbleGolden: scribbleFingerprint(protocol, 0xD00D, d=8).
	scribbleGolden = map[string]string{
		"mesi":        "6575c98153bb2dad6d834c92e3ca53f6b05eb4c3e40113769a507d44f57116fb",
		"ghostwriter": "b8dd59e26e0b44c2d3f24a615bea9699bfce6943a84aadc43b251b9225fafb42",
		"gw-noGI":     "b8789e683de2533e1a829b7a6d93eca4019afa44151ee4216bb042607bac2c26",
	}
	// topologyGolden: configFingerprint of the 24-node ghostwriter machine
	// on each topology (0xD00D, d=8). The mesh entry equals the Table 1
	// machine's scribbleGolden["ghostwriter"].
	topologyGolden = map[string]string{
		"mesh":  "b8dd59e26e0b44c2d3f24a615bea9699bfce6943a84aadc43b251b9225fafb42",
		"ring":  "d9c7c46edd2d6400abcaac785f57834b00b1c1ef851d0dbe817ddad3e26fe3e6",
		"torus": "9dbdc62728d6cae8d8ac5379930f5d44a6dff944efaf9446f4f7ab9a76d78978",
		"xbar":  "85748cacfa87f20cb7e8b318c69b65cec592bbfc8287f989ad97b10bf1682394",
	}
	// grownGridGolden: configFingerprint of the 64-node grids (0xFEED, d=8).
	grownGridGolden = map[string]string{
		"mesh":  "3278305e0e1d58d76b4e946967466b2fa58f72556cfc8160c9ee6270790746b2",
		"torus": "382ac619fe0c495684f34e56c0699fbb618575921e24b8c78d5314bcdea99650",
	}
	// windowEdgeGolden: windowEdgeFingerprint(protocol, 0xB0DA).
	windowEdgeGolden = map[string]string{
		"mesi":        "133eae517dcc0fa364760a817c11218c1c8214434e851b88fea598eb24d1a5a6",
		"ghostwriter": "b14104cf16f515e99067d518ca5dfe88810fb290786c611e15047e922779c2e9",
		"gw-noGI":     "a44c329824d09638b57b11530826dea5b472848387f1cf30f0738055be174803",
	}
)

// splitmix64 is a tiny deterministic PRNG for kernel op streams; the
// simulation must be a pure function of the seed, never of host state.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// scribbleFingerprint runs a cross-tile scribble-heavy kernel on a fresh
// machine and returns a hash over everything observable: elapsed cycles,
// the merged stats and energy, the per-thread utilization report, and the
// coherent post-run memory image.
func scribbleFingerprint(tb testing.TB, protocol string, seed uint64, ddist int) string {
	tb.Helper()
	cfg := DefaultConfig()
	cfg.Protocol = protocol
	return configFingerprint(tb, cfg, seed, ddist)
}

// configFingerprint is scribbleFingerprint for an arbitrary machine config
// (the topology differential reuses the same kernel on other interconnects).
func configFingerprint(tb testing.TB, cfg Config, seed uint64, ddist int) string {
	tb.Helper()
	m := New(cfg)

	const (
		threads = 8
		blocks  = 32
		ops     = 300
	)
	region := m.AllocPadded(blocks * 64)
	for i := 0; i < blocks*64/8; i++ {
		m.WriteBackingUint(region+mem.Addr(8*i), 8, splitmix64(seed+uint64(i)))
	}

	elapsed := m.Run(threads, func(th *Thread) {
		r := splitmix64(seed ^ uint64(th.ID())*0x1234567)
		th.SetApproxDist(ddist)
		for i := 0; i < ops; i++ {
			r = splitmix64(r)
			a := region + mem.Addr(r%uint64(blocks*64)&^3)
			switch r >> 32 % 10 {
			case 0, 1, 2, 3:
				// Scribbles into shared blocks: GS/GI entries and the
				// hidden-update traffic the barrier-window merge must keep
				// in canonical order.
				th.Scribble32(a, uint32(r))
			case 4, 5:
				th.Store32(a, uint32(r>>8))
			case 6, 7, 8:
				th.Load32(a)
			default:
				th.FetchAdd32(region+mem.Addr(th.ID()%4*64), 1)
			}
			if i == ops/3 {
				th.Barrier()
			}
			if i == ops/2 {
				// Hop to a guaranteed-free core and keep scribbling from
				// there: migration is applied at the window merge.
				th.Migrate(th.N() + th.ID())
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

// TestShardDeterminismScribbleTraffic pins the machine-level scribble
// fingerprint of every registered protocol to its golden. The name dates
// from the sharded engine, when this was a 1-vs-2/4/8-shard differential;
// the goldens are the hashes all of those shard counts agreed on.
func TestShardDeterminismScribbleTraffic(t *testing.T) {
	for _, p := range fingerprintProtocols {
		p := p
		t.Run(p, func(t *testing.T) {
			if got := scribbleFingerprint(t, p, 0xD00D, 8); got != scribbleGolden[p] {
				t.Errorf("fingerprint %s, want golden %s", got, scribbleGolden[p])
			}
		})
	}
}

// FuzzShardScribbles fuzzes run-to-run determinism: any seed, d-distance
// and protocol must give byte-identical fingerprints on two fresh machines
// simulated at the same time. The concurrent pair also shows, under -race,
// that machines share no unsynchronized state. The seeds cover the GS/GI
// transition traffic crossing barrier windows in both protocol families.
func FuzzShardScribbles(f *testing.F) {
	f.Add(uint64(1), uint8(4), uint8(0))
	f.Add(uint64(0xBADC0FFEE), uint8(8), uint8(1))
	f.Add(uint64(42), uint8(1), uint8(2))
	f.Fuzz(func(t *testing.T, seed uint64, d uint8, protoIdx uint8) {
		p := fingerprintProtocols[int(protoIdx)%len(fingerprintProtocols)]
		ddist := int(d % 16)
		var fps [2]string
		var wg sync.WaitGroup
		for i := range fps {
			wg.Add(1)
			go func() {
				defer wg.Done()
				fps[i] = scribbleFingerprint(t, p, seed, ddist)
			}()
		}
		wg.Wait()
		if fps[0] != fps[1] {
			t.Fatalf("seed=%d d=%d proto=%s: fingerprints %s and %s differ", seed, ddist, p, fps[0], fps[1])
		}
	})
}
