// Package noc models the on-chip interconnect from Table 1 of the paper.
// Geometry, routing, and per-hop latency live behind the pluggable Topology
// interface (topology.go): the default is the paper's 2D mesh with XY
// dimension-order routing, 1-cycle routers and 1-cycle links; a bidirectional
// ring, a wraparound torus, and a single-hop crossbar are registered beside
// it. The Network flit engine is topology-independent: messages are
// segmented into flits and serialized per directed link (one flit per link
// per cycle), so a message's delivery time accounts for the topology's
// per-hop latency at every route link plus queueing behind earlier traffic,
// which is how coherence-traffic reduction turns into speedup.
package noc

import (
	"fmt"
	"sort"

	"ghostwriter/internal/energy"
	"ghostwriter/internal/sim"
	"ghostwriter/internal/stats"
)

// NodeID identifies an interconnect node (a core/L1 tile, possibly also
// hosting a directory + L2 bank).
type NodeID int

// Handler receives a delivered message payload at a node.
type Handler func(payload any)

// Config describes the interconnect geometry and timing.
type Config struct {
	// Topo names the topology ("mesh", "ring", "torus", "xbar"). Empty
	// selects the mesh and — being omitted from JSON — keeps every config
	// minted before the topology layer byte-identical, so pre-topology
	// content-addressed cache keys stay valid.
	Topo          string `json:",omitempty"`
	Width, Height int    // grid dimensions for mesh/torus (paper: 6x4 = 24 nodes)
	// Nodes is the node count for topologies without grid geometry (ring,
	// xbar); 0 defers to Width×Height. Omitted from JSON when zero for the
	// same key-compatibility reason as Topo.
	Nodes       int       `json:",omitempty"`
	RouterDelay sim.Cycle // per-hop router pipeline latency (paper: 1)
	LinkDelay   sim.Cycle // per-hop link latency (paper: 1)
	FlitBytes   int       // flit width in bytes (16)
	HeaderBytes int       // per-message header (8)
}

// DefaultConfig returns the Table 1 mesh: 6x4, 1-cycle router, 1-cycle link.
func DefaultConfig() Config {
	return Config{Width: 6, Height: 4, RouterDelay: 1, LinkDelay: 1, FlitBytes: 16, HeaderBytes: 8}
}

// Lookahead returns the minimum cross-tile message latency — the cheapest
// possible hop of cfg's topology. It lower-bounds how far in the future any
// cross-tile send can take effect, which is exactly the conservative window
// width the windowed simulator needs. Mesh, ring, and torus hops cost one
// router plus one link traversal; a crossbar hop crosses the switch and both
// wire segments, so its window is RouterDelay+2·LinkDelay. Total for every
// Topo value (unknown names get the mesh bound) so cache-key derivation
// never panics.
func (cfg Config) Lookahead() sim.Cycle {
	if canonicalTopo(cfg.Topo) == "xbar" {
		return cfg.RouterDelay + 2*cfg.LinkDelay
	}
	return cfg.RouterDelay + cfg.LinkDelay
}

// Network is an interconnect bound either to a single simulation engine
// (immediate mode: every Send schedules its delivery right away) or to a
// windowed Cluster (staged mode: cross-tile sends are staged with the
// source tile and routed at the window-barrier merge, where the shared
// link-arbitration state is touched in canonical order).
type Network struct {
	cfg      Config
	topo     Topology
	eng      *sim.Engine // immediate mode only
	handlers []Handler
	linkFree []sim.Cycle // indexed by directed link id
	linkBusy []sim.Cycle // cumulative flit-cycles per directed link
	linkMsgs []uint64    // messages per directed link
	routeBuf []int       // scratch for route(); only touched single-threadedly

	// Immediate mode charges meter/st directly; staged mode charges the
	// per-tile meters for local sends and the merge-phase meter/stats for
	// link traversals (the merged totals are identical either way).
	meter *energy.Meter
	st    *stats.Stats

	clu        *sim.Cluster
	tileMeters []*energy.Meter
	tileStats  []*stats.Stats
}

// New builds a network in immediate mode. meter and st may not be nil.
func New(eng *sim.Engine, cfg Config, meter *energy.Meter, st *stats.Stats) *Network {
	n := newNetwork(cfg)
	n.eng = eng
	n.meter = meter
	n.st = st
	return n
}

// NewStaged builds a network in staged mode on a tile cluster. Local
// (src == dst) sends schedule directly on the source tile's engine and
// charge its meter; cross-tile sends are staged and routed at the window
// merge, charging mergeMeter/mergeSt. One tile resource triple per node is
// required.
func NewStaged(clu *sim.Cluster, cfg Config, tileMeters []*energy.Meter, tileStats []*stats.Stats, mergeMeter *energy.Meter, mergeSt *stats.Stats) *Network {
	n := newNetwork(cfg)
	if clu.Tiles() != n.Nodes() {
		panic(fmt.Sprintf("noc: cluster has %d tiles for a %d-node %s", clu.Tiles(), n.Nodes(), n.topo.Name()))
	}
	if n.topo.Lookahead() < 1 {
		panic("noc: staged mode needs at least one cycle of hop latency for lookahead")
	}
	n.clu = clu
	n.tileMeters = tileMeters
	n.tileStats = tileStats
	n.meter = mergeMeter
	n.st = mergeSt
	return n
}

func newNetwork(cfg Config) *Network {
	if cfg.FlitBytes <= 0 {
		panic("noc: non-positive flit size")
	}
	topo := cfg.mustTopology()
	links := topo.NumLinks()
	return &Network{
		cfg:      cfg,
		topo:     topo,
		handlers: make([]Handler, topo.Nodes()),
		linkFree: make([]sim.Cycle, links),
		linkBusy: make([]sim.Cycle, links),
		linkMsgs: make([]uint64, links),
	}
}

// Topology returns the network's topology model.
func (n *Network) Topology() Topology { return n.topo }

// Nodes returns the node count.
func (n *Network) Nodes() int { return n.topo.Nodes() }

// Register installs the delivery handler for a node. Each node has exactly
// one handler; the machine layer dispatches to co-located components.
func (n *Network) Register(id NodeID, h Handler) {
	if n.handlers[id] != nil {
		panic(fmt.Sprintf("noc: node %d already has a handler", id))
	}
	n.handlers[id] = h
}

// gridWidth returns the grid width for the coordinate accessors: topologies
// without grid geometry read as a 1-row strip.
func (n *Network) gridWidth() int {
	if g, ok := n.topo.(*gridTopo); ok {
		return g.w
	}
	return n.topo.Nodes()
}

// XY returns the grid coordinates of a node (mesh/torus; other topologies
// read as a single row).
func (n *Network) XY(id NodeID) (x, y int) {
	w := n.gridWidth()
	return int(id) % w, int(id) / w
}

// NodeAt returns the node at grid coordinates (x, y).
func (n *Network) NodeAt(x, y int) NodeID { return NodeID(y*n.gridWidth() + x) }

// Hops returns the route length between two nodes.
func (n *Network) Hops(src, dst NodeID) int { return n.topo.Hops(src, dst) }

// Flits returns the number of flits a payload of the given size occupies.
func (n *Network) Flits(payloadBytes int) int {
	total := payloadBytes + n.cfg.HeaderBytes
	f := (total + n.cfg.FlitBytes - 1) / n.cfg.FlitBytes
	if f < 1 {
		f = 1
	}
	return f
}

// route returns the topology's route as a sequence of directed-link ids. The
// returned slice aliases the network's scratch buffer and is only valid
// until the next route call. Routing happens only where link arbitration
// does — in immediate-mode Send (single-threaded engine) or in the staged
// merge phase (coordinator goroutine) — so the scratch buffer needs no
// locking.
func (n *Network) route(src, dst NodeID) []int {
	n.routeBuf = n.topo.Route(n.routeBuf[:0], src, dst)
	return n.routeBuf
}

// Send injects a message of payloadBytes from src to dst and schedules its
// delivery. Local (src == dst) messages pay one router delay and consume no
// link bandwidth. In immediate mode the returned cycle is the delivery
// time; in staged mode a cross-tile send's delivery time is not known
// until the window merge, so Send returns 0 for it (no production caller
// uses the return value — the protocol reacts to deliveries, not to send
// timestamps).
func (n *Network) Send(src, dst NodeID, payloadBytes int, payload any) sim.Cycle {
	h := n.handlers[dst]
	if h == nil {
		panic(fmt.Sprintf("noc: no handler at node %d", dst))
	}
	flits := n.Flits(payloadBytes)
	if n.clu != nil {
		if src == dst {
			eng := n.clu.Tile(int(src))
			t := eng.Now() + n.cfg.RouterDelay
			n.tileMeters[src].RouterTraversal(flits)
			eng.AtArg(t, h, payload)
			return t
		}
		// Cross-tile: stage for the window merge. The route, the link
		// arbitration, and the destination tile's queue are all shared
		// state that only the merge phase may touch.
		n.clu.Stage(int(src), n.mergeSend, payload, uint64(src)|uint64(dst)<<16|uint64(flits)<<32)
		return 0
	}
	t := n.eng.Now()
	if src == dst {
		t += n.cfg.RouterDelay
		n.meter.RouterTraversal(flits)
		n.eng.AtArg(t, h, payload)
		return t
	}
	t = n.deliverAt(src, dst, flits, t)
	n.eng.AtArg(t, h, payload)
	return t
}

// deliverAt routes a cross-tile message injected at cycle t, updating the
// link-arbitration state and charging the network meter/stats, and returns
// the delivery cycle. Shared with the staged merge path so both modes
// price messages identically.
func (n *Network) deliverAt(src, dst NodeID, flits int, t sim.Cycle) sim.Cycle {
	hop := n.topo.HopDelay()
	for _, link := range n.route(src, dst) {
		depart := t
		if n.linkFree[link] > depart {
			depart = n.linkFree[link]
		}
		// The link is busy for the message's full flit train.
		n.linkFree[link] = depart + sim.Cycle(flits)
		n.linkBusy[link] += sim.Cycle(flits)
		n.linkMsgs[link]++
		t = depart + hop
		n.meter.RouterTraversal(flits)
		n.meter.LinkTraversal(flits)
		n.st.FlitHops += uint64(flits)
	}
	// Tail flit arrives flits-1 cycles after the head.
	return t + sim.Cycle(flits-1)
}

// mergeSend is the staged-mode merge handler for one cross-tile message:
// it routes the message from its staged injection cycle and schedules the
// delivery on the destination tile. The delivery cycle is provably at or
// beyond the merge horizon: t ≥ at + HopDelay ≥ at + lookahead, and at lies
// inside the window just drained.
func (n *Network) mergeSend(at sim.Cycle, payload any, aux uint64) {
	src := NodeID(aux & 0xffff)
	dst := NodeID(aux >> 16 & 0xffff)
	flits := int(aux >> 32)
	t := n.deliverAt(src, dst, flits, at)
	n.clu.Tile(int(dst)).AtArg(t, n.handlers[dst], payload)
}

// LinkUtil describes one directed link's traffic over a run.
type LinkUtil struct {
	From, To   NodeID
	Msgs       uint64
	BusyCycles uint64
}

// TopLinks returns the k busiest directed links (by flit-cycles),
// descending — the interconnect's hotspots.
func (n *Network) TopLinks(k int) []LinkUtil {
	var all []LinkUtil
	for id, busy := range n.linkBusy {
		if busy == 0 {
			continue
		}
		from, to := n.topo.LinkEnds(id)
		all = append(all, LinkUtil{
			From: from, To: to,
			Msgs: n.linkMsgs[id], BusyCycles: uint64(busy),
		})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].BusyCycles != all[j].BusyCycles {
			return all[i].BusyCycles > all[j].BusyCycles
		}
		return all[i].From < all[j].From
	})
	if k > 0 && len(all) > k {
		all = all[:k]
	}
	return all
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
