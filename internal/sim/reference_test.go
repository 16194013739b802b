package sim

// The per-tile windowed reference layout: the differential oracle for
// Cluster. Every tile owns a private Engine and an outbox; each window
// drains the tiles in index order (skipping tiles whose next event lies
// past the window), and the barrier merges the outboxes with a K-way scan
// over their heads, the tie going to the lowest tile index. This is the
// schedule DESIGN.md §12 defines; Cluster reaches the same schedule on one
// shared engine with one staging buffer, and the window tests hold the two
// to identical firing and merge logs.

// windowed is the scheduling surface the window tests drive. Cluster and
// refCluster both provide it.
type windowed interface {
	Tiles() int
	Tile(i int) *Engine
	Stage(tile int, h StagedHandler, arg any, aux uint64)
	Horizon() Cycle
	Drain(limit uint64) (uint64, bool)
	WindowStats() WindowStats
}

// nextNone marks an empty tile queue in the reference's next-event cache.
const nextNone = ^Cycle(0)

// refStaged is one effect in a reference outbox. Outboxes are appended in
// firing order, so each is already sorted by at.
type refStaged struct {
	at  Cycle
	h   StagedHandler
	arg any
	aux uint64
}

type refCluster struct {
	tiles     []*Engine
	lookahead Cycle
	base      Cycle
	horizon   Cycle
	outbox    [][]refStaged
	staged    int

	// next caches each tile's next pending cycle (nextNone = empty).
	// Entries stay valid across drains because only a tile's own drain
	// mutates its queue; a merge or scheduling before a run invalidates
	// them.
	next      []Cycle
	nextValid bool

	stats WindowStats
}

func newRefCluster(tiles int, lookahead Cycle) *refCluster {
	if tiles <= 0 {
		panic("sim: cluster needs at least one tile")
	}
	if lookahead < 1 {
		panic("sim: cluster lookahead must be at least one cycle")
	}
	c := &refCluster{
		tiles:     make([]*Engine, tiles),
		lookahead: lookahead,
		outbox:    make([][]refStaged, tiles),
		next:      make([]Cycle, tiles),
	}
	for i := range c.tiles {
		c.tiles[i] = &Engine{}
	}
	return c
}

func (c *refCluster) Tiles() int               { return len(c.tiles) }
func (c *refCluster) Tile(i int) *Engine       { return c.tiles[i] }
func (c *refCluster) Horizon() Cycle           { return c.horizon }
func (c *refCluster) WindowStats() WindowStats { return c.stats }

func (c *refCluster) Stage(tile int, h StagedHandler, arg any, aux uint64) {
	if c.horizon != 0 {
		panic("sim: Stage called during a window merge")
	}
	c.outbox[tile] = append(c.outbox[tile], refStaged{at: c.tiles[tile].Now(), h: h, arg: arg, aux: aux})
	c.staged++
}

// minNext returns the earliest pending cycle across tiles, rescanning
// every queue when the cache is stale.
func (c *refCluster) minNext() Cycle {
	min := nextNone
	for i, t := range c.tiles {
		if !c.nextValid {
			c.next[i] = nextNone
			if at, ok := t.NextAt(); ok {
				c.next[i] = at
			}
		}
		if c.next[i] < min {
			min = c.next[i]
		}
	}
	c.nextValid = true
	return min
}

func (c *refCluster) step() (merged, idle bool) {
	min := c.minNext()
	if min == nextNone {
		return false, true
	}
	if min >= c.base+c.lookahead {
		c.base = min / c.lookahead * c.lookahead
	}
	end := c.base + c.lookahead
	var fired uint64
	for ti, t := range c.tiles {
		if c.next[ti] >= end {
			continue // lags behind; its clock only gates its own scheduling
		}
		f0 := t.Fired()
		c.next[ti] = nextNone
		if at, ok := t.runTo(end - 1); ok {
			c.next[ti] = at
		}
		fired += t.Fired() - f0
	}
	c.stats.Windows++
	c.stats.Events += fired
	if fired > c.stats.MaxWindow {
		c.stats.MaxWindow = fired
	}
	if c.staged > 0 {
		c.stats.Staged += uint64(c.staged)
		c.merge(end)
		c.nextValid = false // handlers scheduled onto arbitrary tiles
		c.stats.Merges++
		merged = true
	}
	c.base = end
	return merged, false
}

// merge applies the outboxes in (at, source tile, staging index) order by
// a K-way scan over their heads.
func (c *refCluster) merge(end Cycle) {
	c.horizon = end
	idx := make([]int, len(c.outbox))
	for {
		best := -1
		for ti, box := range c.outbox {
			if idx[ti] < len(box) && (best < 0 || box[idx[ti]].at < c.outbox[best][idx[best]].at) {
				best = ti
			}
		}
		if best < 0 {
			break
		}
		s := c.outbox[best][idx[best]]
		idx[best]++
		s.h(s.at, s.arg, s.aux)
	}
	for ti := range c.outbox {
		c.outbox[ti] = c.outbox[ti][:0]
	}
	c.staged = 0
	c.horizon = 0
}

func (c *refCluster) Drain(limit uint64) (fired uint64, drained bool) {
	c.nextValid = false
	start := c.stats.Events
	for {
		_, idle := c.step()
		if idle {
			return c.stats.Events - start, true
		}
		if f := c.stats.Events - start; f > limit {
			return f, false
		}
	}
}
