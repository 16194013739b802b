// Cluster runs the per-tile view of the simulated CMP on one engine in
// conservative lookahead windows.
//
// Every tile aliases one shared Engine, so tile-local work schedules
// straight onto the shared wheel. Time advances in windows of width = the
// cluster lookahead, the minimum cross-tile message latency, on a grid
// anchored at cycle 0: within a window [W, W+L) a tile may schedule freely
// into itself, but every cross-tile effect is *staged* instead of being
// applied immediately. At the window barrier the staged effects are applied
// in a fixed (at, source tile, staging index) order and schedule their
// consequences at cycles ≥ W+L — never inside the window just drained.
// Because no tile observes another tile's activity except through staged
// effects, and the merge order is a pure function of simulated time, this
// is the same schedule a per-tile layout with private engines and outboxes
// produces; the sim package tests keep that layout as a differential
// oracle. See DESIGN.md §12 for the lookahead proof sketch and the
// merge-order argument.
//
// Windows whose barrier has no staged effects are *fused*: the merge and
// the RunUntil predicate are skipped, and the next window start jumps
// straight to the grid window of the earliest pending event. The predicate
// therefore runs only at merge barriers and on idle — the only points
// where cross-tile state can change.
package sim

// StagedHandler is a cross-tile effect applied during the window-barrier
// merge phase. at is the cycle the effect was staged (the source tile's
// clock at staging time); arg and aux ride along uninterpreted. Handlers
// run with every tile quiescent, so they may touch any tile, but anything
// they schedule must land at or after the merge horizon (Cluster.Horizon)
// — the cycle the next window starts.
type StagedHandler func(at Cycle, arg any, aux uint64)

// staged is one queued cross-tile effect. The source tile rides in the
// record so the merge can recover the canonical (at, tile, index) order.
type staged struct {
	at   Cycle
	tile int32
	h    StagedHandler
	arg  any
	aux  uint64
}

// WindowStats is a snapshot of the cluster's window-scheduling counters.
// The values describe how the simulation was *driven* — windows, barriers,
// staged effects — and are a deterministic function of the simulated
// schedule: two runs of one configuration report equal counters. They
// still stay out of fingerprints and cached results, because they describe
// the engine rather than the simulated machine; they exist to explain
// benchmark numbers.
type WindowStats struct {
	Windows   uint64 // lookahead windows drained (after empty-window skip)
	Merges    uint64 // barriers that applied staged cross-tile effects
	Staged    uint64 // staged effects applied across all merges
	Events    uint64 // events fired inside window drains
	MaxWindow uint64 // most events fired in a single window
}

// EventsPerWindow returns the mean events fired per drained window.
func (ws WindowStats) EventsPerWindow() float64 {
	if ws.Windows == 0 {
		return 0
	}
	return float64(ws.Events) / float64(ws.Windows)
}

// Cluster is a set of tiles sharing one Engine and advancing in lookahead
// windows.
type Cluster struct {
	e         *Engine
	tiles     int
	lookahead Cycle
	base      Cycle // start of the next window (multiple of lookahead)
	horizon   Cycle // end of the window being merged; 0 outside merge

	box []staged // staged effects of the current window, in staging order

	// next caches the engine's next pending cycle between steps (valid
	// when nextValid; ok reports a non-empty queue). It goes invalid
	// whenever events may have been scheduled outside a step.
	next      Cycle
	nextOK    bool
	nextValid bool

	// Window-occupancy counters behind WindowStats.
	windows         uint64
	merges          uint64
	stagedApplied   uint64
	events          uint64
	maxWindowEvents uint64
}

// NewCluster builds a cluster of tiles sharing one zero-valued Engine,
// advancing in windows of the given lookahead.
func NewCluster(tiles int, lookahead Cycle) *Cluster {
	if tiles <= 0 {
		panic("sim: cluster needs at least one tile")
	}
	if lookahead < 1 {
		panic("sim: cluster lookahead must be at least one cycle")
	}
	return &Cluster{e: &Engine{}, tiles: tiles, lookahead: lookahead}
}

// Tiles returns the tile count.
func (c *Cluster) Tiles() int { return c.tiles }

// Lookahead returns the window width in cycles.
func (c *Cluster) Lookahead() Cycle { return c.lookahead }

// Tile returns tile i's engine. Components bound to tile i schedule
// tile-local work on it directly; every tile returns the one shared
// engine.
func (c *Cluster) Tile(i int) *Engine {
	if uint(i) >= uint(c.tiles) {
		panic("sim: tile index out of range")
	}
	return c.e
}

// Now returns the current simulated cycle: the engine clock, or the start
// of the next window when the clock lags behind it.
func (c *Cluster) Now() Cycle {
	if n := c.e.Now(); n > c.base {
		return n
	}
	return c.base
}

// Horizon returns the cycle the next window starts at. It is only
// meaningful inside a merge phase, where staged handlers use it to place
// follow-up events on the first legal cycle.
func (c *Cluster) Horizon() Cycle { return c.horizon }

// Fired returns the total events fired across all tiles.
func (c *Cluster) Fired() uint64 { return c.e.Fired() }

// WindowStats returns a snapshot of the window-scheduling counters,
// cumulative since construction. Call it between runs.
func (c *Cluster) WindowStats() WindowStats {
	return WindowStats{
		Windows:   c.windows,
		Merges:    c.merges,
		Staged:    c.stagedApplied,
		Events:    c.events,
		MaxWindow: c.maxWindowEvents,
	}
}

// Stage queues a cross-tile effect from the given source tile, stamped
// with the current cycle. It must be called from code running on that
// tile (during a window drain); the handler runs at the next window
// barrier. Staging from a merge handler is a protocol violation — the
// window it would belong to has already been merged.
func (c *Cluster) Stage(tile int, h StagedHandler, arg any, aux uint64) {
	if c.horizon != 0 {
		panic("sim: Stage called during a window merge")
	}
	// One clock: at is non-decreasing across appends, so the buffer is
	// already at-sorted and the merge only has to order equal-cycle runs
	// by tile.
	c.box = append(c.box, staged{at: c.e.Now(), tile: int32(tile), h: h, arg: arg, aux: aux})
}

// step drains one lookahead window with a single fused runTo and merges
// its barrier if anything was staged. merged reports whether a merge ran
// (the only transitions where cross-tile state changes); idle reports a
// fully drained cluster (nothing fired, nothing merged).
func (c *Cluster) step() (merged, idle bool) {
	e := c.e
	if !c.nextValid {
		c.next, c.nextOK = e.NextAt()
		c.nextValid = true
	}
	if !c.nextOK {
		return false, true
	}
	if c.next >= c.base+c.lookahead {
		// Skip empty windows: jump to the grid-aligned window containing
		// the earliest event. The grid is anchored at cycle 0 in multiples
		// of the lookahead, so the jump target is independent of history.
		c.base = c.next / c.lookahead * c.lookahead
	}
	end := c.base + c.lookahead
	f0 := e.fired
	next, ok := e.runTo(end - 1)
	fired := e.fired - f0
	c.windows++
	c.events += fired
	if fired > c.maxWindowEvents {
		c.maxWindowEvents = fired
	}
	if len(c.box) > 0 {
		c.stagedApplied += uint64(len(c.box))
		c.merge(end)
		// Merge handlers schedule at or past the horizon; re-read the
		// exact next cycle rather than tracking what they scheduled.
		next, ok = e.NextAt()
		c.merges++
		merged = true
	}
	c.next, c.nextOK = next, ok
	c.base = end
	return merged, false
}

// merge applies the staging buffer in canonical (at, source tile, staging
// index) order. The buffer is at-sorted by construction (one clock), so a
// stable insertion pass that only reorders equal-at runs by tile recovers
// exactly the order a K-way scan over per-tile outboxes would produce.
// end is the next window start, published as Horizon for the handlers.
func (c *Cluster) merge(end Cycle) {
	c.horizon = end
	box := c.box
	for i := 1; i < len(box); i++ {
		s := box[i]
		j := i
		for j > 0 && box[j-1].at == s.at && box[j-1].tile > s.tile {
			box[j] = box[j-1]
			j--
		}
		box[j] = s
	}
	for i := range box {
		s := &box[i]
		h, at, arg, aux := s.h, s.at, s.arg, s.aux
		s.h, s.arg = nil, nil // release references; the buffer is reused
		h(at, arg, aux)
	}
	c.box = box[:0]
	c.horizon = 0
}

// Align advances the clock to the start of the next window, so that work
// scheduled between runs (machine kickoff events, post-run probes) lands
// on the window grid. Call only when the queue is empty — typically right
// after a successful Drain.
func (c *Cluster) Align() {
	c.e.RunTo(c.base)
	c.nextValid = false
}

// RunUntil advances windows until the predicate holds or every tile
// drains. The predicate is evaluated at merge barriers and on idle — the
// only points where cross-tile state changes, so the only points where its
// value can flip. Windows whose barrier merged nothing are fused straight
// into the next drain without re-evaluating it. It returns true if the
// predicate was satisfied.
func (c *Cluster) RunUntil(done func() bool) bool {
	c.nextValid = false // events may have been scheduled since the last run
	for !done() {
		for {
			merged, idle := c.step()
			if idle {
				return done()
			}
			if merged {
				break
			}
		}
	}
	return true
}

// Drain runs windows until the queue is empty, with a safety limit on the
// number of events fired to guard against livelock in a buggy model. It
// returns the events fired and whether it fully drained.
func (c *Cluster) Drain(limit uint64) (fired uint64, drained bool) {
	c.nextValid = false // events may have been scheduled since the last run
	start := c.events
	for {
		_, idle := c.step()
		if idle {
			return c.events - start, true
		}
		if f := c.events - start; f > limit {
			return f, false
		}
	}
}
