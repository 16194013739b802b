package noc

import (
	"fmt"
	"reflect"
	"testing"

	"ghostwriter/internal/energy"
	"ghostwriter/internal/sim"
	"ghostwriter/internal/stats"
)

// topoConfig builds a Config for one registered topology at the Table 1
// timing defaults.
func topoConfig(t *testing.T, name string, nodes int) Config {
	t.Helper()
	cfg, err := Geometry(name, nodes)
	if err != nil {
		t.Fatalf("Geometry(%q, %d): %v", name, nodes, err)
	}
	return cfg
}

func TestTopologyParse(t *testing.T) {
	for _, name := range append(Topologies(), "") {
		got, err := ParseTopology(name)
		if err != nil {
			t.Errorf("ParseTopology(%q): %v", name, err)
		}
		want := name
		if name == "" {
			want = "mesh"
		}
		if got != want {
			t.Errorf("ParseTopology(%q) = %q, want %q", name, got, want)
		}
	}
	if _, err := ParseTopology("hypercube"); err == nil {
		t.Error("ParseTopology accepted an unregistered name")
	}
}

func TestTopologyGeometryDefaults(t *testing.T) {
	// The default-size mesh must spell exactly like the pre-topology config:
	// that identity is what keeps legacy cache keys valid.
	if got := topoConfig(t, "mesh", 24); got != DefaultConfig() {
		t.Fatalf("Geometry(mesh, 24) = %+v, want DefaultConfig %+v", got, DefaultConfig())
	}
	if got := topoConfig(t, "", 0); got != DefaultConfig() {
		t.Fatalf("Geometry(\"\", 0) = %+v, want DefaultConfig", got)
	}
	if cfg := topoConfig(t, "torus", 64); cfg.Topo != "torus" || cfg.Width != 8 || cfg.Height != 8 {
		t.Fatalf("Geometry(torus, 64) = %+v, want an 8x8 torus", cfg)
	}
	if cfg := topoConfig(t, "ring", 24); cfg.Topo != "ring" || cfg.Nodes != 24 || cfg.Width != 0 {
		t.Fatalf("Geometry(ring, 24) = %+v, want a 24-node ring with no grid dims", cfg)
	}
	if _, err := Geometry("mesh", maxNodes+1); err == nil {
		t.Error("Geometry accepted a node count beyond the staged-aux bound")
	}
	for _, c := range []struct{ n, w, h int }{
		{24, 6, 4}, {64, 8, 8}, {256, 16, 16}, {7, 7, 1}, {12, 4, 3},
	} {
		if w, h := squarest(c.n); w != c.w || h != c.h {
			t.Errorf("squarest(%d) = %dx%d, want %dx%d", c.n, w, h, c.w, c.h)
		}
	}
}

func TestTopologyDefaultHomes(t *testing.T) {
	// The 6x4 mesh corners must reproduce the paper's directory placement.
	if got := DefaultHomes(DefaultConfig(), 4); !reflect.DeepEqual(got, []int{0, 5, 18, 23}) {
		t.Fatalf("mesh homes = %v, want [0 5 18 23]", got)
	}
	if got := DefaultHomes(topoConfig(t, "torus", 64), 4); !reflect.DeepEqual(got, []int{0, 7, 56, 63}) {
		t.Fatalf("8x8 torus homes = %v, want [0 7 56 63]", got)
	}
	if got := DefaultHomes(topoConfig(t, "ring", 24), 4); !reflect.DeepEqual(got, []int{0, 6, 12, 18}) {
		t.Fatalf("ring homes = %v, want evenly spaced [0 6 12 18]", got)
	}
	if got := DefaultHomes(topoConfig(t, "xbar", 24), 4); !reflect.DeepEqual(got, []int{0, 6, 12, 18}) {
		t.Fatalf("xbar homes = %v, want evenly spaced [0 6 12 18]", got)
	}
	// Degenerate grid: a 2x1 mesh has two distinct corners, not four.
	cfg := DefaultConfig()
	cfg.Width, cfg.Height = 2, 1
	if got := DefaultHomes(cfg, 4); !reflect.DeepEqual(got, []int{0, 1}) {
		t.Fatalf("2x1 mesh homes = %v, want [0 1]", got)
	}
}

func TestTopologyRingRouting(t *testing.T) {
	topo, err := topoConfig(t, "ring", 6).Topology()
	if err != nil {
		t.Fatal(err)
	}
	if topo.Nodes() != 6 || topo.NumLinks() != 12 {
		t.Fatalf("6-ring: %d nodes, %d links", topo.Nodes(), topo.NumLinks())
	}
	// Shortest way: 0→2 clockwise (2 hops), 0→5 counter-clockwise (1 hop).
	if h := topo.Hops(0, 2); h != 2 {
		t.Errorf("Hops(0,2) = %d, want 2", h)
	}
	if h := topo.Hops(0, 5); h != 1 {
		t.Errorf("Hops(0,5) = %d, want 1", h)
	}
	// Exact half-way (0→3 on a 6-ring) breaks the tie clockwise: links
	// node*2+0 stepping 0→1→2→3.
	route := topo.Route(nil, 0, 3)
	if want := []int{0, 2, 4}; !reflect.DeepEqual(route, want) {
		t.Errorf("half-way route = %v, want clockwise %v", route, want)
	}
	// Counter-clockwise route uses the odd link ids.
	route = topo.Route(nil, 0, 5)
	if want := []int{1}; !reflect.DeepEqual(route, want) {
		t.Errorf("0→5 route = %v, want %v", route, want)
	}
}

func TestTopologyTorusWraparound(t *testing.T) {
	topo, err := topoConfig(t, "torus", 24).Topology()
	if err != nil {
		t.Fatal(err)
	}
	// On the 6x4 torus, opposite corners are 1+1 wraparound hops apart
	// (the mesh needs 5+3).
	if h := topo.Hops(0, 23); h != 2 {
		t.Errorf("torus Hops(0,23) = %d, want 2", h)
	}
	mesh := DefaultConfig().mustTopology()
	if h := mesh.Hops(0, 23); h != 8 {
		t.Errorf("mesh Hops(0,23) = %d, want 8", h)
	}
	// Exact half-way along x (0→3 on width 6) ties toward +x.
	route := topo.Route(nil, 0, 3)
	if want := []int{0, 4, 8}; !reflect.DeepEqual(route, want) {
		t.Errorf("torus half-way route = %v, want +x %v", route, want)
	}
	// Wraparound route 0→5 goes -x across the seam in one hop.
	route = topo.Route(nil, 0, 5)
	if want := []int{1}; !reflect.DeepEqual(route, want) {
		t.Errorf("torus 0→5 route = %v, want seam hop %v", route, want)
	}
	// Torus and mesh agree wherever no wraparound is shorter.
	if got, want := topo.Hops(0, 9), mesh.Hops(0, 9); got != want {
		t.Errorf("short-path torus Hops(0,9) = %d, mesh says %d", got, want)
	}
}

func TestTopologyXbarSingleHop(t *testing.T) {
	cfg := topoConfig(t, "xbar", 24)
	topo, err := cfg.Topology()
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumLinks() != 24*24 {
		t.Fatalf("crossbar links = %d, want n²", topo.NumLinks())
	}
	for _, pair := range [][2]NodeID{{0, 23}, {5, 6}, {23, 0}} {
		if h := topo.Hops(pair[0], pair[1]); h != 1 {
			t.Errorf("xbar Hops(%d,%d) = %d, want 1", pair[0], pair[1], h)
		}
	}
	if topo.HopDelay() != 3 || topo.Lookahead() != 3 {
		t.Fatalf("xbar hop/lookahead = %d/%d, want 3/3 (router + 2 wires)",
			topo.HopDelay(), topo.Lookahead())
	}
	// End-to-end: a 5-flit data message crosses in 3 + 4 tail = cycle 7,
	// regardless of how far apart the mesh would have placed the nodes.
	eng := &sim.Engine{}
	n := New(eng, cfg, &energy.Meter{}, &stats.Stats{})
	var at sim.Cycle
	n.Register(23, func(p any) { at = eng.Now() })
	n.Register(0, func(p any) {})
	n.Send(0, 23, 64, "d")
	eng.Drain(10)
	if at != 7 {
		t.Fatalf("xbar data delivery at cycle %d, want 7", at)
	}
}

// TestTopologyRouteChainConsistency checks, for every registered topology
// and every node pair, that the route is a connected directed-link chain
// from src to dst of exactly Hops links, and that every link id stays
// within the topology's namespace.
func TestTopologyRouteChainConsistency(t *testing.T) {
	for _, name := range Topologies() {
		t.Run(name, func(t *testing.T) {
			topo, err := topoConfig(t, name, 24).Topology()
			if err != nil {
				t.Fatal(err)
			}
			for s := 0; s < topo.Nodes(); s++ {
				for d := 0; d < topo.Nodes(); d++ {
					src, dst := NodeID(s), NodeID(d)
					route := topo.Route(nil, src, dst)
					if len(route) != topo.Hops(src, dst) {
						t.Fatalf("%d→%d: route length %d != Hops %d",
							s, d, len(route), topo.Hops(src, dst))
					}
					cur := src
					for _, link := range route {
						if link < 0 || link >= topo.NumLinks() {
							t.Fatalf("%d→%d: link id %d outside [0,%d)", s, d, link, topo.NumLinks())
						}
						from, to := topo.LinkEnds(link)
						if from != cur {
							t.Fatalf("%d→%d: link %d departs %d, expected %d", s, d, link, from, cur)
						}
						cur = to
					}
					if cur != dst {
						t.Fatalf("%d→%d: route ends at %d", s, d, cur)
					}
				}
			}
		})
	}
}

// TestTopologyLookaheadBounds checks the staged-window contract on every
// topology: a positive lookahead that never exceeds the cheapest possible
// cross-node delivery, and Config.Lookahead agreeing with the model (the
// windowed machine derives its window width from the former).
func TestTopologyLookaheadBounds(t *testing.T) {
	for _, name := range Topologies() {
		cfg := topoConfig(t, name, 24)
		topo, err := cfg.Topology()
		if err != nil {
			t.Fatal(err)
		}
		if topo.Lookahead() < 1 {
			t.Errorf("%s: non-positive lookahead %d", name, topo.Lookahead())
		}
		if topo.Lookahead() > topo.HopDelay() {
			t.Errorf("%s: lookahead %d exceeds a single hop %d", name, topo.Lookahead(), topo.HopDelay())
		}
		if cfg.Lookahead() != topo.Lookahead() {
			t.Errorf("%s: Config.Lookahead %d != Topology.Lookahead %d",
				name, cfg.Lookahead(), topo.Lookahead())
		}
		want := sim.Cycle(2)
		if name == "xbar" {
			want = 3
		}
		if topo.Lookahead() != want {
			t.Errorf("%s: lookahead %d, want %d at Table 1 delays", name, topo.Lookahead(), want)
		}
	}
}

// TestTopologyWindowZeroLookaheadGuard pins the staged-mode guard for every
// registered topology: zero hop latency means no conservative window, and
// NewStaged must refuse it with the named panic rather than build a
// network whose cross-tile sends would land inside the current window.
func TestTopologyWindowZeroLookaheadGuard(t *testing.T) {
	for _, name := range Topologies() {
		t.Run(name, func(t *testing.T) {
			cfg := topoConfig(t, name, 24)
			cfg.RouterDelay, cfg.LinkDelay = 0, 0
			clu := sim.NewCluster(cfg.NodeCount(), 1)
			defer func() {
				r := recover()
				msg, ok := r.(string)
				if !ok || msg != "noc: staged mode needs at least one cycle of hop latency for lookahead" {
					t.Errorf("panic %v, want the named zero-lookahead guard", r)
				}
			}()
			NewStaged(clu, cfg, nil, nil, nil, nil)
			t.Error("NewStaged accepted a zero-lookahead config")
		})
	}
}

// TestTopologyEnergyPerRouteLink checks the energy model is uniform across
// topologies: one router and one link traversal per route link, per flit —
// the crossbar's second wire segment is latency-only.
func TestTopologyEnergyPerRouteLink(t *testing.T) {
	for _, name := range Topologies() {
		t.Run(name, func(t *testing.T) {
			cfg := topoConfig(t, name, 24)
			eng := &sim.Engine{}
			st := &stats.Stats{}
			m := &energy.Meter{}
			n := New(eng, cfg, m, st)
			for id := 0; id < n.Nodes(); id++ {
				n.Register(NodeID(id), func(p any) {})
			}
			n.Send(0, 13, 64, "d") // 5 flits
			eng.Drain(100)
			wantHops := uint64(n.Hops(0, 13) * 5)
			if st.FlitHops != wantHops {
				t.Fatalf("FlitHops = %d, want %d", st.FlitHops, wantHops)
			}
			var ref energy.Meter
			ref.RouterTraversal(int(wantHops))
			ref.LinkTraversal(int(wantHops))
			if m.NetworkPJ != ref.NetworkPJ {
				t.Fatalf("network energy %v, want %v (1 router + 1 link per route link)",
					m.NetworkPJ, ref.NetworkPJ)
			}
		})
	}
}

// TestTopologyDescribe pins the report strings the harness renders into
// Table 1 and the figures.
func TestTopologyDescribe(t *testing.T) {
	for _, c := range []struct {
		name  string
		nodes int
		want  string
	}{
		{"mesh", 24, "6x4 mesh, XY routing"},
		{"torus", 256, "16x16 torus, wraparound XY routing"},
		{"ring", 24, "24-node bidirectional ring, shortest-way routing"},
		{"xbar", 24, "24-port crossbar, single hop"},
	} {
		topo, err := topoConfig(t, c.name, c.nodes).Topology()
		if err != nil {
			t.Fatal(err)
		}
		if got := topo.Describe(); got != c.want {
			t.Errorf("%s: Describe = %q, want %q", c.name, got, c.want)
		}
		if topo.Name() != c.name {
			t.Errorf("Name = %q, want %q", topo.Name(), c.name)
		}
	}
}

// TestTopologyLargeGrids builds the grown meshes the sweep recipes use and
// spot-checks their geometry end-to-end through the Network accessors.
func TestTopologyLargeGrids(t *testing.T) {
	for _, c := range []struct {
		name  string
		nodes int
	}{
		{"mesh", 64}, {"torus", 64}, {"mesh", 256}, {"torus", 256},
	} {
		t.Run(fmt.Sprintf("%s-%d", c.name, c.nodes), func(t *testing.T) {
			cfg := topoConfig(t, c.name, c.nodes)
			n := New(&sim.Engine{}, cfg, &energy.Meter{}, &stats.Stats{})
			if n.Nodes() != c.nodes {
				t.Fatalf("Nodes = %d, want %d", n.Nodes(), c.nodes)
			}
			w := cfg.Width
			last := NodeID(c.nodes - 1)
			if x, y := n.XY(last); x != w-1 || y != c.nodes/w-1 {
				t.Fatalf("corner at (%d,%d)", x, y)
			}
			wantCorner := 2 * (w - 1) // square grid: (w-1)+(h-1)
			if c.name == "torus" {
				wantCorner = 2 // wraparound: one seam hop per axis
			}
			if h := n.Hops(0, last); h != wantCorner {
				t.Fatalf("corner-to-corner hops = %d, want %d", h, wantCorner)
			}
		})
	}
}
