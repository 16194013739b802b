package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Span sources: the workload's own traced passes, or the layer-probe
// ledger that runs after them.
const (
	srcWorkload = "workload"
	srcProbe    = "probe"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the boundary. Spans of one cell (or one gwcached request chain) share
// a trace id; parent names the span that caused this one.
type span struct {
	ID, Parent, Trace uint64
	Name              string
	Src               string
	Start, Dur        time.Duration // Start is relative to the tracer's origin
	Args              map[string]float64
}

// tracer keeps every span in memory until the run ends. A nil *tracer is
// the untraced mode: every method is a no-op.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	next   uint64
	src    string
	spans  []span
}

func newTracer() *tracer { return &tracer{origin: time.Now(), src: srcWorkload} }

// open is a started span.
type open struct {
	id, parent, trace uint64
	name              string
	start             time.Time
}

// newTrace allocates a trace id for one cell or request chain.
func (t *tracer) newTrace() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// begin starts a span named name under parent (0 for a root) in trace.
func (t *tracer) begin(name string, trace, parent uint64) open {
	if t == nil {
		return open{}
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return open{id: id, parent: parent, trace: trace, name: name, start: time.Now()}
}

// end closes o with its counters and returns its duration.
func (t *tracer) end(o open, args map[string]float64) time.Duration {
	if t == nil {
		return 0
	}
	now := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, span{
		ID: o.id, Parent: o.parent, Trace: o.trace, Name: o.name, Src: t.src,
		Start: o.start.Sub(t.origin), Dur: now.Sub(o.start), Args: args,
	})
	t.mu.Unlock()
	return now.Sub(o.start)
}

// named returns the spans called name, from the workload's passes when it
// recorded any and from the probe ledger otherwise: a workload that never
// calls into a layer is described by that layer's probe.
func (t *tracer) named(name string) []span {
	var own, probe []span
	for _, s := range t.spans {
		if s.Name != name {
			continue
		}
		if s.Src == srcWorkload {
			own = append(own, s)
		} else {
			probe = append(probe, s)
		}
	}
	if len(own) > 0 {
		return own
	}
	return probe
}

// write stores the spans as Chrome trace-event JSON (opens in Perfetto).
func (t *tracer) write(dir, file string) error {
	type event struct {
		Name string             `json:"name"`
		Cat  string             `json:"cat"`
		Ph   string             `json:"ph"`
		TS   float64            `json:"ts"`
		Dur  float64            `json:"dur"`
		PID  int                `json:"pid"`
		TID  uint64             `json:"tid"`
		Args map[string]float64 `json:"args,omitempty"`
	}
	events := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		args := map[string]float64{"span": float64(s.ID), "parent": float64(s.Parent)}
		for k, v := range s.Args {
			args[k] = v
		}
		events = append(events, event{
			Name: s.Name, Cat: s.Src, Ph: "X",
			TS: float64(s.Start.Nanoseconds()) / 1e3, Dur: float64(s.Dur.Nanoseconds()) / 1e3,
			PID: 1, TID: s.Trace, Args: args,
		})
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, file), b, 0o644)
}
