package main

import (
	"fmt"
	"io"
	"runtime"
	"time"
)

// layerMetric is one per-layer metric: its name, unit, and how to compute
// it from the traced run.
type layerMetric struct {
	name, unit string
	value      func(l *layerRun) float64
}

// layerRun is everything the traced run measured.
type layerRun struct {
	tr       *tracer
	base     *tally // untraced half
	traced   *tally // traced half
	probes   map[string]float64
	shares   map[string]float64
	ms0, ms1 *runtime.MemStats
}

// sum totals arg over spans; dur totals their durations in ns.
func sum(spans []span, arg string) float64 {
	t := 0.0
	for _, s := range spans {
		if arg == "" {
			t += float64(s.Dur.Nanoseconds())
		} else {
			t += s.Args[arg]
		}
	}
	return t
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// medianMS is the median duration of the spans called name, in ms.
func (l *layerRun) medianMS(name string) float64 {
	var d []float64
	for _, s := range l.tr.named(name) {
		d = append(d, ms(s.Dur.Nanoseconds()))
	}
	return median(d)
}

// per divides the sums of two counters (arg "" = duration in ns) over the
// spans called name.
func (l *layerRun) per(name, num, den string) float64 {
	s := l.tr.named(name)
	return ratio(sum(s, num), sum(s, den))
}

func probeMetric(name, unit string) layerMetric {
	return layerMetric{name, unit, func(l *layerRun) float64 { return l.probes[name] }}
}

func medianMetric(name, span string) layerMetric {
	return layerMetric{name, "ms", func(l *layerRun) float64 { return l.medianMS(span) }}
}

func runRatio(name, unit, num, den string) layerMetric {
	return layerMetric{name, unit, func(l *layerRun) float64 { return l.per("machine.run", num, den) }}
}

// layerMetrics lists every per-layer metric in report order. README.md maps
// each to the end-to-end metric and workload it should move.
func layerMetrics() []layerMetric {
	ms := []layerMetric{
		medianMetric("machine.run_ms", "machine.run"),
		runRatio("machine.ns_per_op", "ns", "", "ops"),
		probeMetric("machine.hit_op_ns", "ns"),
		probeMetric("machine.hit_op_allocs", "allocs/op"),
		probeMetric("machine.miss_op_ns", "ns"),
		probeMetric("machine.miss_op_allocs", "allocs/op"),
		runRatio("sim.events_per_op", "events/op", "events", "ops"),
		runRatio("sim.ns_per_event", "ns", "", "events"),
		runRatio("sim.windows_per_op", "windows/op", "windows", "ops"),
		probeMetric("sim.event_ns", "ns"),
		probeMetric("sim.event_allocs", "allocs/op"),
		runRatio("coherence.msgs_per_op", "msgs/op", "msgs", "ops"),
		runRatio("coherence.l1_miss_rate", "ratio", "l1_misses", "l1_accesses"),
		runRatio("coherence.gs_frac", "ratio", "gs", "stores_on_s"),
		runRatio("coherence.gi_frac", "ratio", "gi", "stores_on_i"),
		runRatio("noc.flit_hops_per_op", "hops/op", "flit_hops", "ops"),
		probeMetric("noc.send_ns.mesh24", "ns"),
		probeMetric("noc.send_ns.torus64", "ns"),
		probeMetric("noc.send_allocs", "allocs/op"),
		runRatio("dram.accesses_per_op", "accesses/op", "dram", "ops"),
		probeMetric("cache.lookup_ns", "ns"),
		probeMetric("cache.lookup_allocs", "allocs/op"),
		medianMetric("workloads.prepare_ms", "workloads.prepare"),
		medianMetric("quality.measure_ms", "quality.measure"),
	}
	for _, g := range []string{"conc-mixed", "seq-mixed", "seq-evict", "conc-evict", "conc-3core"} {
		span := "check.explore." + g
		ms = append(ms, layerMetric{"check.ns_per_schedule." + g, "ns",
			func(l *layerRun) float64 { return l.per(span, "", "schedules") }})
	}
	ms = append(ms,
		probeMetric("check.alloc_bytes_per_schedule", "B"),
		probeMetric("harness.key_us", "us"),
		probeMetric("harness.key_allocs", "allocs/op"),
		medianMetric("harness.submit_ms", "harness.submit"),
		medianMetric("harness.claim_ms", "harness.claim"),
		medianMetric("harness.complete_ms", "harness.complete"),
		medianMetric("harness.get_ms", "harness.get"),
		layerMetric{"harness.rpc_retries", "count",
			func(l *layerRun) float64 { return sum(l.tr.named("fleet.pass"), "retries") }},
		layerMetric{"wal.appends_per_cell", "appends/cell",
			func(l *layerRun) float64 { return l.per("fleet.pass", "appends", "cells") }},
		probeMetric("wal.append_sync_us", "us"),
		probeMetric("wal.append_allocs", "allocs/op"),
	)
	for _, mod := range cpuModules {
		name := mod
		ms = append(ms, layerMetric{"cpu." + mod, "%", func(l *layerRun) float64 { return l.shares[name] }})
	}
	return append(ms,
		layerMetric{"alloc.bytes_per_op", "B/op", func(l *layerRun) float64 {
			return ratio(float64(l.ms1.TotalAlloc-l.ms0.TotalAlloc), l.traced.ops())
		}},
		layerMetric{"gc.cycles", "count", func(l *layerRun) float64 { return float64(l.ms1.NumGC - l.ms0.NumGC) }},
		layerMetric{"trace_overhead_pct", "%", func(l *layerRun) float64 {
			base := l.base.perSecond(float64(len(l.base.cells)))
			traced := l.traced.perSecond(float64(len(l.traced.cells)))
			return (ratio(base, traced) - 1) * 100
		}},
	)
}

// perLayer reports every per-layer metric of the traced run.
func perLayer(o options, l *layerRun, m map[string]metric, log io.Writer) {
	fmt.Fprintf(log, "perfbench %s seed=%d traced: %d cells untraced, %d traced, %d spans\n",
		o.workload, o.seed, len(l.base.cells), len(l.traced.cells), len(l.tr.spans))
	for _, lm := range layerMetrics() {
		put(m, log, lm.name, lm.value(l), lm.unit, "")
	}
}

// nowNS is a monotonic clock reading in ns.
func nowNS() int64 { return int64(time.Since(epoch)) }

var epoch = time.Now()
