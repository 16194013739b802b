package noc

import (
	"fmt"
	"sort"
	"strings"

	"ghostwriter/internal/sim"
)

// Topology is the pluggable geometry/routing/latency model behind the
// Network flit engine. A topology owns the node naming, the directed-link
// namespace, and the per-hop delay; the Network owns everything a topology
// does not depend on — flit segmentation, per-link serialization, energy
// accounting, and the staged-merge discipline.
//
// Contract:
//   - Route returns the src→dst path as directed-link ids appended to buf,
//     deterministically (the same pair always routes the same way); an empty
//     route means src == dst.
//   - Every link id is < NumLinks() and LinkEnds inverts it.
//   - HopDelay is the latency a message pays per route link (router pipeline
//     plus wire traversal).
//   - Lookahead lower-bounds the delivery latency of any cross-node message:
//     Lookahead() ≤ Hops(s,d)·HopDelay() for all s ≠ d. The windowed
//     simulator uses it as the conservative window width (DESIGN.md §12/§14),
//     so a topology that violates the bound breaks causality, and one whose
//     Lookahead is zero cannot be staged at all (NewStaged refuses it).
type Topology interface {
	// Name is the registered topology name ("mesh", "ring", "torus", "xbar").
	Name() string
	// Nodes is the node count.
	Nodes() int
	// NumLinks bounds the directed-link id namespace.
	NumLinks() int
	// Route appends the directed-link ids of the src→dst path to buf and
	// returns it (an alias of buf's array when capacity suffices).
	Route(buf []int, src, dst NodeID) []int
	// Hops returns the route length between two nodes.
	Hops(src, dst NodeID) int
	// LinkEnds returns the endpoints of a directed link.
	LinkEnds(link int) (from, to NodeID)
	// HopDelay is the per-route-link latency.
	HopDelay() sim.Cycle
	// Lookahead is the minimum cross-node delivery latency.
	Lookahead() sim.Cycle
	// Describe renders the topology for reports ("6x4 mesh, XY routing").
	Describe() string
}

// Topologies returns the registered topology names, sorted.
func Topologies() []string { return []string{"mesh", "ring", "torus", "xbar"} }

// canonicalTopo maps the empty name (legacy configs predating the topology
// layer) to the mesh.
func canonicalTopo(name string) string {
	if name == "" {
		return "mesh"
	}
	return name
}

// ParseTopology validates a topology name for flag/spec parsing, mapping ""
// to "mesh" and rejecting unknown names with the registered alternatives.
func ParseTopology(name string) (string, error) {
	c := canonicalTopo(name)
	for _, t := range Topologies() {
		if c == t {
			return c, nil
		}
	}
	return "", fmt.Errorf("unknown topology %q (registered: %s)",
		name, strings.Join(Topologies(), ", "))
}

// Topology constructs cfg's topology model, validating the geometry.
func (cfg Config) Topology() (Topology, error) {
	name := canonicalTopo(cfg.Topo)
	n := cfg.NodeCount()
	if n < 1 || n > maxNodes {
		return nil, fmt.Errorf("noc: node count %d out of range [1, %d]", n, maxNodes)
	}
	switch name {
	case "mesh", "torus":
		w, h := cfg.Width, cfg.Height
		if w <= 0 || h <= 0 {
			// Geometry given only as a node count: fold it into the most
			// square grid (24 → 6x4, the paper's Table 1 shape).
			w, h = squarest(n)
		}
		return &gridTopo{name: name, w: w, h: h, wrap: name == "torus",
			router: cfg.RouterDelay, link: cfg.LinkDelay}, nil
	case "ring":
		return &ringTopo{n: n, router: cfg.RouterDelay, link: cfg.LinkDelay}, nil
	case "xbar":
		return &xbarTopo{n: n, router: cfg.RouterDelay, link: cfg.LinkDelay}, nil
	}
	return nil, fmt.Errorf("noc: unknown topology %q (registered: %s)",
		cfg.Topo, strings.Join(Topologies(), ", "))
}

// maxNodes bounds a topology's size: staged-mode sends pack src and dst into
// 16 bits each, and a crossbar allocates n² link slots.
const maxNodes = 4096

// mustTopology is Topology for construction paths that already validated.
func (cfg Config) mustTopology() Topology {
	t, err := cfg.Topology()
	if err != nil {
		panic(err.Error())
	}
	return t
}

// NodeCount returns the node count cfg describes without building the
// topology: the explicit Nodes override if set, else Width×Height.
func (cfg Config) NodeCount() int {
	if cfg.Nodes > 0 {
		return cfg.Nodes
	}
	return cfg.Width * cfg.Height
}

// squarest factors n into the most square w×h grid with w ≥ h.
func squarest(n int) (w, h int) {
	for h = 1; (h+1)*(h+1) <= n; h++ {
	}
	for ; h > 1; h-- {
		if n%h == 0 {
			break
		}
	}
	return n / h, h
}

// Geometry returns the Config for a named topology at a node count, with the
// Table 1 timing defaults. An empty name selects the mesh; nodes 0 keeps the
// default 24. Geometry("mesh", 24) is exactly DefaultConfig(), so the
// default-size mesh derives the same machine configuration — and the same
// content-addressed cache keys — as every config minted before the topology
// layer existed.
func Geometry(name string, nodes int) (Config, error) {
	cfg := DefaultConfig()
	canonical, err := ParseTopology(name)
	if err != nil {
		return Config{}, err
	}
	if nodes == 0 {
		nodes = cfg.Width * cfg.Height
	}
	if nodes < 1 || nodes > maxNodes {
		return Config{}, fmt.Errorf("noc: node count %d out of range [1, %d]", nodes, maxNodes)
	}
	switch canonical {
	case "mesh", "torus":
		// Grid geometry lives in Width×Height; the mesh keeps Topo empty so
		// the legacy JSON form (and every key over it) is byte-identical.
		cfg.Width, cfg.Height = squarest(nodes)
		if canonical == "torus" {
			cfg.Topo = "torus"
		}
	default:
		cfg.Topo = canonical
		cfg.Width, cfg.Height = 0, 0
		cfg.Nodes = nodes
	}
	return cfg, nil
}

// DefaultHomes places k directory homes on cfg's topology: the grid corners
// for mesh and torus (reproducing the paper's {0, 5, 18, 23} on the 6x4
// mesh), evenly spaced nodes for ring and crossbar. Degenerate geometries
// (fewer distinct corners or nodes than k) return fewer homes.
func DefaultHomes(cfg Config, k int) []int {
	n := cfg.NodeCount()
	if k > n {
		k = n
	}
	if k < 1 {
		k = 1
	}
	switch canonicalTopo(cfg.Topo) {
	case "mesh", "torus":
		w, h := cfg.Width, cfg.Height
		if w <= 0 || h <= 0 {
			w, h = squarest(n)
		}
		var homes []int
		for _, c := range []int{0, w - 1, (h - 1) * w, h*w - 1} {
			dup := false
			for _, o := range homes {
				dup = dup || o == c
			}
			if !dup && len(homes) < k {
				homes = append(homes, c)
			}
		}
		sort.Ints(homes)
		return homes
	default:
		homes := make([]int, 0, k)
		for i := 0; i < k; i++ {
			homes = append(homes, i*n/k)
		}
		return homes
	}
}

// gridTopo is the 2D grid family: the paper's XY mesh, and the torus variant
// with wraparound links. Link ids preserve the historical mesh layout —
// node*4 + direction (0=+x, 1=-x, 2=+y, 3=-y) — so the extracted mesh is
// bit-for-bit the pre-topology network.
type gridTopo struct {
	name   string
	w, h   int
	wrap   bool
	router sim.Cycle
	link   sim.Cycle
}

// dirDelta maps a direction index to its coordinate step.
var dirDelta = [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}

func (t *gridTopo) Name() string        { return t.name }
func (t *gridTopo) Nodes() int          { return t.w * t.h }
func (t *gridTopo) NumLinks() int       { return t.w * t.h * 4 }
func (t *gridTopo) HopDelay() sim.Cycle { return t.router + t.link }
func (t *gridTopo) Lookahead() sim.Cycle {
	return t.router + t.link
}

func (t *gridTopo) xy(id NodeID) (x, y int) { return int(id) % t.w, int(id) / t.w }
func (t *gridTopo) at(x, y int) NodeID      { return NodeID(y*t.w + x) }
func (t *gridTopo) linkID(from NodeID, dir int) int {
	return int(from)*4 + dir
}

// axisSteps returns the direction (as a dirDelta index offset: 0 for the
// positive direction, 1 for the negative) and hop count along one axis of
// length size from c to dc. The torus takes the shorter way around, breaking
// exact ties toward the positive direction.
func (t *gridTopo) axisSteps(c, dc, size int) (neg bool, steps int) {
	if !t.wrap {
		if dc >= c {
			return false, dc - c
		}
		return true, c - dc
	}
	fwd := ((dc - c) % size + size) % size
	bwd := size - fwd
	if fwd == 0 {
		return false, 0
	}
	if bwd < fwd {
		return true, bwd
	}
	return false, fwd
}

func (t *gridTopo) Hops(src, dst NodeID) int {
	sx, sy := t.xy(src)
	dx, dy := t.xy(dst)
	_, hx := t.axisSteps(sx, dx, t.w)
	_, hy := t.axisSteps(sy, dy, t.h)
	return hx + hy
}

func (t *gridTopo) Route(buf []int, src, dst NodeID) []int {
	x, y := t.xy(src)
	dx, dy := t.xy(dst)
	negX, hx := t.axisSteps(x, dx, t.w)
	for ; hx > 0; hx-- {
		dir, step := 0, 1
		if negX {
			dir, step = 1, -1
		}
		buf = append(buf, t.linkID(t.at(x, y), dir))
		x = ((x+step)%t.w + t.w) % t.w
	}
	negY, hy := t.axisSteps(y, dy, t.h)
	for ; hy > 0; hy-- {
		dir, step := 2, 1
		if negY {
			dir, step = 3, -1
		}
		buf = append(buf, t.linkID(t.at(x, y), dir))
		y = ((y+step)%t.h + t.h) % t.h
	}
	return buf
}

func (t *gridTopo) LinkEnds(link int) (from, to NodeID) {
	from = NodeID(link / 4)
	dir := link % 4
	x, y := t.xy(from)
	x = ((x+dirDelta[dir][0])%t.w + t.w) % t.w
	y = ((y+dirDelta[dir][1])%t.h + t.h) % t.h
	return from, t.at(x, y)
}

func (t *gridTopo) Describe() string {
	if t.wrap {
		return fmt.Sprintf("%dx%d torus, wraparound XY routing", t.w, t.h)
	}
	return fmt.Sprintf("%dx%d mesh, XY routing", t.w, t.h)
}

// ringTopo is a bidirectional ring with shortest-way routing. Link ids are
// node*2 + direction (0 = clockwise/+1, 1 = counter-clockwise/-1); exact
// half-way ties route clockwise.
type ringTopo struct {
	n      int
	router sim.Cycle
	link   sim.Cycle
}

func (t *ringTopo) Name() string         { return "ring" }
func (t *ringTopo) Nodes() int           { return t.n }
func (t *ringTopo) NumLinks() int        { return t.n * 2 }
func (t *ringTopo) HopDelay() sim.Cycle  { return t.router + t.link }
func (t *ringTopo) Lookahead() sim.Cycle { return t.router + t.link }

func (t *ringTopo) Hops(src, dst NodeID) int {
	cw := (int(dst) - int(src) + t.n) % t.n
	if ccw := t.n - cw; cw != 0 && ccw < cw {
		return ccw
	}
	return cw
}

func (t *ringTopo) Route(buf []int, src, dst NodeID) []int {
	cw := (int(dst) - int(src) + t.n) % t.n
	if cw == 0 {
		return buf
	}
	dir, step, hops := 0, 1, cw
	if ccw := t.n - cw; ccw < cw {
		dir, step, hops = 1, -1, ccw
	}
	cur := int(src)
	for ; hops > 0; hops-- {
		buf = append(buf, cur*2+dir)
		cur = (cur + step + t.n) % t.n
	}
	return buf
}

func (t *ringTopo) LinkEnds(link int) (from, to NodeID) {
	from = NodeID(link / 2)
	step := 1
	if link%2 == 1 {
		step = -1
	}
	return from, NodeID((int(from) + step + t.n) % t.n)
}

func (t *ringTopo) Describe() string {
	return fmt.Sprintf("%d-node bidirectional ring, shortest-way routing", t.n)
}

// xbarTopo is a single-hop crossbar — the idealized-network ablation. Every
// (src, dst) pair has a dedicated directed link (id src*n + dst), so there
// is no path contention, only per-pair serialization. The one hop crosses
// the router and two wire segments (input and output side of the switch),
// so its latency — and the staged window width — is RouterDelay+2·LinkDelay.
type xbarTopo struct {
	n      int
	router sim.Cycle
	link   sim.Cycle
}

func (t *xbarTopo) Name() string         { return "xbar" }
func (t *xbarTopo) Nodes() int           { return t.n }
func (t *xbarTopo) NumLinks() int        { return t.n * t.n }
func (t *xbarTopo) HopDelay() sim.Cycle  { return t.router + 2*t.link }
func (t *xbarTopo) Lookahead() sim.Cycle { return t.router + 2*t.link }

func (t *xbarTopo) Hops(src, dst NodeID) int {
	if src == dst {
		return 0
	}
	return 1
}

func (t *xbarTopo) Route(buf []int, src, dst NodeID) []int {
	if src == dst {
		return buf
	}
	return append(buf, int(src)*t.n+int(dst))
}

func (t *xbarTopo) LinkEnds(link int) (from, to NodeID) {
	return NodeID(link / t.n), NodeID(link % t.n)
}

func (t *xbarTopo) Describe() string {
	return fmt.Sprintf("%d-port crossbar, single hop", t.n)
}
