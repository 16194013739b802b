// Package sim provides the deterministic discrete-event engine underlying
// the Ghostwriter simulator.
//
// All hardware components (cache controllers, directories, the NoC, DRAM)
// schedule work on a single Engine. Events fire in (cycle, insertion-order)
// order, so a simulation is a pure function of its inputs: re-running a
// configuration reproduces every cycle count and every byte of output.
//
// The scheduler is a hierarchical timing wheel sized for the protocol's
// short fixed latencies (cache probes, link hops, DRAM), with a typed
// min-heap overflow tier for far events such as the periodic GI sweep.
// Event records come from an intrusive free list and are recycled as they
// fire, so steady-state scheduling performs no heap allocation. See
// DESIGN.md §9 for the layout and the determinism argument.
package sim

import (
	"fmt"
	"math/bits"
)

// Cycle is a point in simulated time, measured in core clock cycles.
type Cycle uint64

// Event is a callback scheduled to run at a particular cycle.
type Event func()

const (
	wheelBits  = 8
	wheelSize  = 1 << wheelBits // wheel horizon, in cycles
	wheelMask  = wheelSize - 1
	wheelWords = wheelSize / 64 // occupancy bitmap words
	chunkSize  = 256            // free-list growth increment
)

// event is one scheduled callback. Exactly one of fn or h is set: fn for
// closure events (At/After), h+arg for pre-bound events (AtArg/AfterArg).
// next links bucket FIFOs and the free list.
type event struct {
	at   Cycle
	seq  uint64
	fn   Event
	h    func(any)
	arg  any
	next *event
}

// bucket is one wheel slot: a FIFO of events all scheduled for the same
// cycle (within the horizon, exactly one cycle maps to each slot), so
// append order is seq order and no per-slot sorting is needed.
type bucket struct{ head, tail *event }

// Engine is a deterministic discrete-event scheduler. The zero value is
// ready to use.
//
// Near-future events (within wheelSize cycles of the schedule-time clock)
// go to the wheel slot `cycle & wheelMask`; farther events go to a min-heap
// ordered by (at, seq). Overflow events are never migrated into the wheel:
// an overflow event at cycle T was scheduled while now ≤ T-wheelSize,
// whereas any wheel event at T was scheduled while now > T-wheelSize —
// strictly later, hence with a larger seq. Popping the overflow head
// whenever overflow[0].at ≤ (earliest wheel cycle) therefore reproduces
// exact (at, seq) order with no promotion pass.
type Engine struct {
	now   Cycle
	seq   uint64
	fired uint64

	slots      [wheelSize]bucket
	occ        [wheelWords]uint64 // occupancy bitmap over slots
	wheelCount int

	overflow []*event // min-heap on (at, seq)
	free     *event   // intrusive free list of recycled records
}

// Now returns the current simulated cycle.
func (e *Engine) Now() Cycle { return e.now }

// Fired returns the total number of events fired since construction (the
// denominator of the events/sec throughput metric).
func (e *Engine) Fired() uint64 { return e.fired }

// alloc takes a record from the free list, growing it a chunk at a time.
func (e *Engine) alloc() *event {
	if e.free == nil {
		chunk := make([]event, chunkSize)
		for i := range chunk[:chunkSize-1] {
			chunk[i].next = &chunk[i+1]
		}
		e.free = &chunk[0]
	}
	ev := e.free
	e.free = ev.next
	ev.next = nil
	return ev
}

// recycle zeroes a fired record (dropping its callback/arg references) and
// returns it to the free list.
func (e *Engine) recycle(ev *event) {
	*ev = event{next: e.free}
	e.free = ev
}

// schedule allocates, stamps, and enqueues a record for cycle at.
func (e *Engine) schedule(at Cycle) *event {
	if at < e.now {
		panic(fmt.Sprintf("sim: event scheduled in the past (event at cycle %d, now cycle %d)", at, e.now))
	}
	e.seq++
	ev := e.alloc()
	ev.at = at
	ev.seq = e.seq
	if at < e.now+wheelSize {
		s := int(at) & wheelMask
		b := &e.slots[s]
		if b.tail == nil {
			b.head, b.tail = ev, ev
			e.occ[s>>6] |= 1 << (s & 63)
		} else {
			b.tail.next = ev
			b.tail = ev
		}
		e.wheelCount++
	} else {
		e.pushOverflow(ev)
	}
	return ev
}

// At schedules fn to run at cycle at. Scheduling in the past (at < Now) is a
// programming error and panics: hardware cannot act before the present.
func (e *Engine) At(at Cycle, fn Event) { e.schedule(at).fn = fn }

// After schedules fn to run delay cycles from now.
func (e *Engine) After(delay Cycle, fn Event) { e.At(e.now+delay, fn) }

// AtArg schedules h(arg) at cycle at without capturing a closure: the
// handler and its argument ride in the event record itself, so hot paths
// with a stable handler (NoC delivery, controller dispatch) schedule with
// zero allocation. Pointer-shaped args avoid boxing.
func (e *Engine) AtArg(at Cycle, h func(any), arg any) {
	ev := e.schedule(at)
	ev.h = h
	ev.arg = arg
}

// AfterArg schedules h(arg) delay cycles from now.
func (e *Engine) AfterArg(delay Cycle, h func(any), arg any) { e.AtArg(e.now+delay, h, arg) }

// Pending reports the number of scheduled events not yet fired.
func (e *Engine) Pending() int { return e.wheelCount + len(e.overflow) }

// nextWheel locates the earliest occupied wheel slot, scanning the
// occupancy bitmap circularly from the current cycle's slot. Wheel events
// always lie in [now, now+wheelSize): at ≥ now because events fire in
// order, at < now+wheelSize because the horizon only tightens as now
// advances past the insertion clock. Circular slot distance from now's
// slot therefore equals at-now, so the first occupied slot holds the
// minimum cycle.
func (e *Engine) nextWheel() (Cycle, int, bool) {
	if e.wheelCount == 0 {
		return 0, 0, false
	}
	start := int(e.now) & wheelMask
	wi := start >> 6
	w := e.occ[wi] &^ (1<<(start&63) - 1) // mask off slots before start
	for i := 0; i <= wheelWords; i++ {
		if w != 0 {
			s := wi<<6 + bits.TrailingZeros64(w)
			return e.slots[s].head.at, s, true
		}
		wi = (wi + 1) & (wheelWords - 1)
		w = e.occ[wi]
	}
	panic("sim: wheel count/bitmap mismatch")
}

// NextAt peeks the cycle of the next event to fire without firing it. The
// window scheduler in Cluster uses it to skip empty lookahead windows.
func (e *Engine) NextAt() (Cycle, bool) {
	wAt, _, wOk := e.nextWheel()
	if len(e.overflow) > 0 && (!wOk || e.overflow[0].at <= wAt) {
		return e.overflow[0].at, true
	}
	return wAt, wOk
}

// pop removes and returns the globally next event in (at, seq) order, or
// nil when none are pending. Ties between tiers go to the overflow heap,
// whose records are always older (see the Engine comment).
func (e *Engine) pop() *event {
	wAt, wSlot, wOk := e.nextWheel()
	if len(e.overflow) > 0 && (!wOk || e.overflow[0].at <= wAt) {
		return e.popOverflow()
	}
	if !wOk {
		return nil
	}
	b := &e.slots[wSlot]
	ev := b.head
	b.head = ev.next
	if b.head == nil {
		b.tail = nil
		e.occ[wSlot>>6] &^= 1 << (wSlot & 63)
	}
	e.wheelCount--
	return ev
}

// Step fires the next event, advancing the clock to its cycle. It reports
// whether an event was fired (false when the queue is empty). The record
// is recycled before the callback runs, so callbacks may freely schedule.
func (e *Engine) Step() bool {
	ev := e.pop()
	if ev == nil {
		return false
	}
	e.now = ev.at
	e.fired++
	fn, h, arg := ev.fn, ev.h, ev.arg
	e.recycle(ev)
	if fn != nil {
		fn()
	} else {
		h(arg)
	}
	return true
}

// RunTo fires every event scheduled at or before deadline, then advances
// the clock to deadline. Events scheduled later stay queued. Use this to
// let in-flight activity settle for a bounded window without chasing
// periodic self-rescheduling events.
func (e *Engine) RunTo(deadline Cycle) { e.runTo(deadline) }

// runTo is RunTo fused with the follow-up NextAt: it fires every event at
// or before deadline with a single queue scan per event (Step via NextAt
// would scan twice), advances the clock to deadline, and returns the cycle
// of the next pending event. The window scheduler in Cluster drains each
// window through this, caching the returned cycle so a merge-free barrier
// needs no rescan to find the next window.
func (e *Engine) runTo(deadline Cycle) (next Cycle, ok bool) {
	for {
		wAt, wSlot, wOk := e.nextWheel()
		var at Cycle
		fromOverflow := false
		switch {
		case len(e.overflow) > 0 && (!wOk || e.overflow[0].at <= wAt):
			at, fromOverflow = e.overflow[0].at, true
		case wOk:
			at = wAt
		default:
			if deadline > e.now {
				e.now = deadline
			}
			return 0, false
		}
		if at > deadline {
			if deadline > e.now {
				e.now = deadline
			}
			return at, true
		}
		if fromOverflow {
			ev := e.popOverflow()
			e.now = ev.at
			e.fired++
			fn, h, arg := ev.fn, ev.h, ev.arg
			e.recycle(ev)
			if fn != nil {
				fn()
			} else {
				h(arg)
			}
			continue
		}
		// Fire the slot's whole bucket without rescanning: within the
		// horizon exactly one cycle maps to each slot, so every event here
		// — including ones a callback appends mid-loop — is at cycle at,
		// and the overflow tier cannot interleave (overflow events are
		// strictly later: ties were drained above, and a callback can push
		// overflow events only at or beyond now+wheelSize).
		b := &e.slots[wSlot]
		for {
			ev := b.head
			b.head = ev.next
			if b.head == nil {
				b.tail = nil
				e.occ[wSlot>>6] &^= 1 << (wSlot & 63)
			}
			e.wheelCount--
			e.now = ev.at
			e.fired++
			fn, h, arg := ev.fn, ev.h, ev.arg
			e.recycle(ev)
			if fn != nil {
				fn()
			} else {
				h(arg)
			}
			if b.head == nil {
				break
			}
		}
	}
}

// RunUntil fires events until the predicate returns true or the queue
// drains. It returns true if the predicate was satisfied.
func (e *Engine) RunUntil(done func() bool) bool {
	for !done() {
		if !e.Step() {
			return done()
		}
	}
	return true
}

// Drain fires events until the queue is empty, with a safety limit on the
// number of events to guard against livelock in a buggy model. It returns
// the number of events fired and whether the queue drained within the limit.
func (e *Engine) Drain(limit uint64) (fired uint64, drained bool) {
	for e.Pending() > 0 {
		if fired >= limit {
			return fired, false
		}
		e.Step()
		fired++
	}
	return fired, true
}

// Overflow min-heap on (at, seq). Hand-written to keep records typed —
// container/heap would box every push and pop through interface{}.

func overflowLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Engine) pushOverflow(ev *event) {
	h := append(e.overflow, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !overflowLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	e.overflow = h
}

func (e *Engine) popOverflow() *event {
	h := e.overflow
	ev := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = nil // release the slot so recycled records aren't pinned
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && overflowLess(h[l], h[m]) {
			m = l
		}
		if r < n && overflowLess(h[r], h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	e.overflow = h
	return ev
}
