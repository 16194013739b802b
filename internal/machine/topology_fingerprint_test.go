package machine

import (
	"testing"

	"ghostwriter/internal/coherence"
	"ghostwriter/internal/noc"
	"ghostwriter/internal/sim"
)

// topoMachineConfig builds the machine for one registered topology the way
// the top-level package derives it: geometry from noc.Geometry, directory
// homes re-placed by noc.DefaultHomes, one core per node.
func topoMachineConfig(tb testing.TB, topo string, nodes int) Config {
	tb.Helper()
	cfg := DefaultConfig()
	geo, err := noc.Geometry(topo, nodes)
	if err != nil {
		tb.Fatalf("Geometry(%q, %d): %v", topo, nodes, err)
	}
	cfg.Mesh = geo
	cfg.DirNodes = noc.DefaultHomes(geo, len(cfg.DirNodes))
	cfg.Cores = geo.NodeCount()
	if cfg.Cores > coherence.MaxCores {
		cfg.Cores = coherence.MaxCores
	}
	cfg.Protocol = "ghostwriter"
	return cfg
}

// TestTopologyShardDeterminism pins the scribble fingerprint of the
// 24-node machine on every registered interconnect, and the per-topology
// window width that drives its barriers (the crossbar's 3-cycle lookahead
// vs 2 for the others). The name dates from the topology × shard
// differential; the goldens are the hashes every shard count agreed on.
func TestTopologyShardDeterminism(t *testing.T) {
	for _, name := range noc.Topologies() {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := topoMachineConfig(t, name, 24)
			wantWidth := sim.Cycle(2)
			if name == "xbar" {
				wantWidth = 3
			}
			if got := cfg.Mesh.Lookahead(); got != wantWidth {
				t.Fatalf("window width %d, want %d — the per-topology lookahead must drive the barrier", got, wantWidth)
			}
			want, ok := topologyGolden[name]
			if !ok {
				t.Fatalf("no golden fingerprint for topology %q", name)
			}
			if got := configFingerprint(t, cfg, 0xD00D, 8); got != want {
				t.Errorf("fingerprint %s, want golden %s", got, want)
			}
		})
	}
}

// TestTopologyShardDeterminismGrownGrids pins the fingerprints of the
// grown interconnects the sweep recipes use — a 64-tile (8x8) mesh and
// torus with one core per tile — so the windowed engine and the
// SharerSet-widened directory stay fixed past the paper's 24 tiles.
func TestTopologyShardDeterminismGrownGrids(t *testing.T) {
	for _, name := range []string{"mesh", "torus"} {
		name := name
		t.Run(name, func(t *testing.T) {
			cfg := topoMachineConfig(t, name, 64)
			if cfg.Cores != 64 {
				t.Fatalf("cores = %d, want 64", cfg.Cores)
			}
			if got := configFingerprint(t, cfg, 0xFEED, 8); got != grownGridGolden[name] {
				t.Errorf("fingerprint %s, want golden %s", got, grownGridGolden[name])
			}
		})
	}
}
