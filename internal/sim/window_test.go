package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// Window-boundary edge tests: events exactly at the window edge, a
// lookahead of a single cycle, zero-lookahead construction guards, and
// same-cycle cross-tile effects landing on the barrier boundary. Each
// event graph must produce identical per-tile firing logs and an
// identical merge log on Cluster (one shared engine, one staging buffer)
// and on the per-tile reference layout of reference_test.go — the
// windowed-schedule contract of DESIGN.md §12.

// winLog records what a cluster run did: per-tile firing logs and the
// merge log.
type winLog struct {
	tiles [][]string
	merge []string
}

// runWindowGraph lets build schedule the event graph on c, drains it, and
// returns the logs.
func runWindowGraph(t *testing.T, c windowed, build func(c windowed, l *winLog)) winLog {
	t.Helper()
	l := winLog{tiles: make([][]string, c.Tiles())}
	build(c, &l)
	if _, drained := c.Drain(1_000_000); !drained {
		t.Fatal("did not drain")
	}
	return l
}

// assertWindowInvariant runs the graph on the reference layout and on
// Cluster, requiring identical logs. The reference is the "want" side.
func assertWindowInvariant(t *testing.T, tiles int, lookahead Cycle, build func(c windowed, l *winLog)) {
	t.Helper()
	want := runWindowGraph(t, newRefCluster(tiles, lookahead), build)
	got := runWindowGraph(t, NewCluster(tiles, lookahead), build)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Cluster diverges from the reference:\n got %+v\nwant %+v", got, want)
	}
}

// TestWindowEdgeEvents pins events on both sides of a window edge: the
// last cycle of a window (L-1 on the cycle-0 grid), the first cycle of
// the next (exactly L), and chains that re-schedule from one onto the
// other. Cross-tile pings staged on the last cycle of a window merge at
// the very next barrier and deliver on the boundary cycle itself.
func TestWindowEdgeEvents(t *testing.T) {
	const tiles = 4
	const L = Cycle(4)
	assertWindowInvariant(t, tiles, L, func(c windowed, l *winLog) {
		rec := func(ti int, tag string) {
			l.tiles[ti] = append(l.tiles[ti], fmt.Sprintf("%s@%d", tag, c.Tile(ti).Now()))
		}
		deliver := func(at Cycle, arg any, aux uint64) {
			src, dst := int(aux>>8), int(aux&0xff)
			l.merge = append(l.merge, fmt.Sprintf("%d->%d@%d (h=%d)", src, dst, at, c.Horizon()))
			dst2 := dst
			c.Tile(dst).At(c.Horizon(), func() { rec(dst2, "deliver") })
		}
		for ti := 0; ti < tiles; ti++ {
			ti := ti
			// Last cycle of window 0: fire, stage a ping to the next tile,
			// and schedule locally onto the first cycle of window 1.
			c.Tile(ti).At(L-1, func() {
				rec(ti, "edge-1")
				c.Stage(ti, deliver, nil, uint64(ti)<<8|uint64((ti+1)%tiles))
				c.Tile(ti).At(L, func() { rec(ti, "edge") })
			})
			// An event scheduled directly on the window edge, before the run.
			c.Tile(ti).At(L, func() { rec(ti, "pre-edge") })
			// And one a full window later, to cross a skip-ahead.
			c.Tile(ti).At(3*L, func() { rec(ti, "far") })
		}
	})
}

// TestWindowLookaheadOne pins the degenerate grid where every cycle is its
// own window: L = 1 makes every barrier a potential merge and every event
// a boundary event.
func TestWindowLookaheadOne(t *testing.T) {
	const tiles = 4
	assertWindowInvariant(t, tiles, 1, func(c windowed, l *winLog) {
		rec := func(ti int, tag string) {
			l.tiles[ti] = append(l.tiles[ti], fmt.Sprintf("%s@%d", tag, c.Tile(ti).Now()))
		}
		var hop StagedHandler
		hop = func(at Cycle, arg any, aux uint64) {
			src, dst, hops := int(aux>>16), int(aux>>8&0xff), int(aux&0xff)
			l.merge = append(l.merge, fmt.Sprintf("%d->%d@%d", src, dst, at))
			dst2, hops2 := dst, hops
			c.Tile(dst).At(c.Horizon(), func() {
				rec(dst2, "hop")
				if hops2 > 0 {
					c.Stage(dst2, hop, nil, uint64(dst2)<<16|uint64((dst2+1)%tiles)<<8|uint64(hops2-1))
				}
			})
		}
		for ti := 0; ti < tiles; ti++ {
			ti := ti
			c.Tile(ti).At(Cycle(ti), func() {
				rec(ti, "start")
				c.Stage(ti, hop, nil, uint64(ti)<<16|uint64((ti+1)%tiles)<<8|3)
			})
		}
	})
}

// TestWindowSameCycleCrossTileAtBarrier pins the canonical merge order
// when several tiles stage effects in the same cycle — the barrier
// boundary cycle — and every delivery lands exactly on the horizon. The
// merge log must order the ties by source tile, and deliveries to one
// destination must apply in that same order.
func TestWindowSameCycleCrossTileAtBarrier(t *testing.T) {
	const tiles = 4
	const L = Cycle(2)
	assertWindowInvariant(t, tiles, L, func(c windowed, l *winLog) {
		deliver := func(at Cycle, arg any, aux uint64) {
			src, dst := int(aux>>8), int(aux&0xff)
			l.merge = append(l.merge, fmt.Sprintf("%d->%d@%d", src, dst, at))
			src2, dst2 := src, dst
			c.Tile(dst).At(c.Horizon(), func() {
				l.tiles[dst2] = append(l.tiles[dst2], fmt.Sprintf("from%d@%d", src2, c.Tile(dst2).Now()))
			})
		}
		// Every tile stages two effects to tile 0 on the last cycle of
		// window 0 (cycle L-1). Canonical order is by (at, tile, staging
		// index): all of tile 0's pair, then tile 1's, and so on — and the
		// deliveries on tile 0 fire in exactly that scheduling order.
		for ti := 0; ti < tiles; ti++ {
			ti := ti
			c.Tile(ti).At(L-1, func() {
				c.Stage(ti, deliver, nil, uint64(ti)<<8|0)
				c.Stage(ti, deliver, nil, uint64(ti)<<8|0)
			})
		}
	})
}

// TestWindowZeroLookaheadPanics pins the construction guard by name: a
// windowless cluster cannot exist, in either layout, and the panic says
// why.
func TestWindowZeroLookaheadPanics(t *testing.T) {
	for _, build := range []struct {
		name string
		fn   func()
	}{
		{"cluster", func() { NewCluster(4, 0) }},
		{"reference", func() { newRefCluster(4, 0) }},
	} {
		func() {
			defer func() {
				r := recover()
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, "lookahead must be at least one cycle") {
					t.Errorf("%s: panic %v, want the named lookahead guard", build.name, r)
				}
			}()
			build.fn()
			t.Errorf("%s: zero-lookahead construction did not panic", build.name)
		}()
	}
}

// TestWindowStatsCounters pins the observability counters: windows,
// merges, staged effects and events are schedule-determined, so Cluster
// and the reference layout report identical values.
func TestWindowStatsCounters(t *testing.T) {
	build := func(c windowed) WindowStats {
		noop := func(Cycle, any, uint64) {}
		for i := 0; i < 4; i++ {
			i := i
			c.Tile(i).At(Cycle(2*i+1), func() { c.Stage(i, noop, nil, 0) })
		}
		c.Drain(1000)
		return c.WindowStats()
	}
	cs := build(NewCluster(4, 2))
	if cs.Merges != 4 || cs.Staged != 4 {
		t.Errorf("merges/staged = %d/%d, want 4/4", cs.Merges, cs.Staged)
	}
	if cs.Events != 4 || cs.Windows == 0 || cs.MaxWindow != 1 {
		t.Errorf("events/windows/max = %d/%d/%d, want 4/>0/1", cs.Events, cs.Windows, cs.MaxWindow)
	}
	if rs := build(newRefCluster(4, 2)); rs != cs {
		t.Errorf("reference counters %+v diverge from Cluster %+v", rs, cs)
	}
}

// TestWindowPumpFiringLog is the unit-level determinism differential over
// a longer cross-tile event graph: every tile runs a self-rescheduling
// pump that periodically stages a ping to another tile, and the merge
// handler schedules the delivery on the destination tile at the horizon.
// Cluster and the reference layout must log identical firings and merges.
func TestWindowPumpFiringLog(t *testing.T) {
	const tiles = 8
	assertWindowInvariant(t, tiles, 2, func(c windowed, l *winLog) {
		var pump func(ti int, hops int) func()
		deliver := func(at Cycle, arg any, aux uint64) {
			src, dst := int(aux>>8&0xff), int(aux&0xff)
			l.merge = append(l.merge, fmt.Sprintf("%d->%d@%d", src, dst, at))
			c.Tile(dst).At(c.Horizon(), pump(dst, int(aux>>16)))
		}
		pump = func(ti, hops int) func() {
			return func() {
				l.tiles[ti] = append(l.tiles[ti], fmt.Sprint(c.Tile(ti).Now()))
				if hops == 0 {
					return
				}
				dst := (ti*5 + hops) % tiles
				if dst == ti {
					c.Tile(ti).After(3, pump(ti, hops-1))
					return
				}
				c.Stage(ti, deliver, nil, uint64(hops-1)<<16|uint64(ti)<<8|uint64(dst))
			}
		}
		for ti := 0; ti < tiles; ti++ {
			c.Tile(ti).At(Cycle(ti%3), pump(ti, 6))
		}
	})
}
