package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ghostwriter/internal/harness"
)

// fleetBatch is the cells one claim leases: gwsweep -worker's default.
const fleetBatch = 4

// attempts counts every HTTP request the process sends, retries included,
// so a pass's retries are its attempts minus its RPCs.
type countingTransport struct {
	base     http.RoundTripper
	attempts atomic.Int64
}

func (c *countingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	c.attempts.Add(1)
	return c.base.RoundTrip(r)
}

var (
	transportOnce sync.Once
	transport     *countingTransport
)

// installTransport routes the RemoteCache clients (which use
// http.DefaultTransport) through the attempt counter.
func installTransport() *countingTransport {
	transportOnce.Do(func() {
		transport = &countingTransport{base: http.DefaultTransport}
		http.DefaultTransport = transport
	})
	return transport
}

// gwcached is one in-process durable server on loopback with its clients.
type gwcached struct {
	dir     string
	dd      *harness.DurableDispatcher
	srv     *http.Server
	served  chan error
	clients []*harness.RemoteCache
}

// startGWCached brings up a durable gwcached — result store and WAL in a
// fresh temporary directory — and nClients clients for it.
func startGWCached(nClients int) (*gwcached, error) {
	dir, err := os.MkdirTemp("", "perfbench-fleet-*")
	if err != nil {
		return nil, err
	}
	g := &gwcached{dir: dir}
	store, err := harness.OpenCache(filepath.Join(dir, "store"))
	if err != nil {
		g.stop()
		return nil, err
	}
	cached := func(key string) bool { _, ok := store.Get(key); return ok }
	g.dd, _, err = harness.OpenDurableDispatcher(filepath.Join(dir, "wal"), harness.DefaultLeaseTTL, nil, cached)
	if err != nil {
		g.stop()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		g.stop()
		return nil, err
	}
	g.srv = &http.Server{Handler: harness.NewServer(harness.ServerConfig{Backend: store, Durable: g.dd}),
		ReadHeaderTimeout: 10 * time.Second}
	g.served = make(chan error, 1)
	go func() { g.served <- g.srv.Serve(ln) }()
	for i := 0; i < nClients; i++ {
		c, err := harness.NewRemoteCache(harness.RemoteConfig{URL: "http://" + ln.Addr().String(), Reprobe: -1})
		if err != nil {
			g.stop()
			return nil, err
		}
		g.clients = append(g.clients, c)
	}
	return g, nil
}

// stop shuts the server down, waits for it, closes the WAL and removes the
// directory.
func (g *gwcached) stop() error {
	var errs []error
	for _, c := range g.clients {
		c.Close()
	}
	if g.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		errs = append(errs, g.srv.Shutdown(ctx))
		cancel()
		if err := <-g.served; !errors.Is(err, http.ErrServerClosed) {
			errs = append(errs, err)
		}
	}
	if transport != nil {
		if t, ok := transport.base.(*http.Transport); ok {
			t.CloseIdleConnections()
		}
	}
	if g.dd != nil {
		errs = append(errs, g.dd.Close())
	}
	errs = append(errs, os.RemoveAll(g.dir))
	// Commit the removal to the file system journal now, so the next
	// pass's fsyncs do not pay for this pass's deletions.
	errs = append(errs, syncDir(filepath.Dir(g.dir)))
	return errors.Join(errs...)
}

// syncDir fsyncs a directory.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// rpc times one gwcached request as a span and as a latency sample.
func rpc(tr *tracer, t *rpcLog, name string, trace, parent uint64, call func() error) (open, float64, error) {
	sp := tr.begin(name, trace, parent)
	start := nowNS()
	err := call()
	d := ms(nowNS() - start)
	tr.end(sp, nil)
	t.add(d, err)
	return sp, d, err
}

// rpcLog collects one pass's request latencies and failures from several
// client goroutines.
type rpcLog struct {
	mu     sync.Mutex
	lat    []float64
	cells  map[string]float64 // per-cell host ms: claim share + PUT + GET
	errs   []error            // failed requests
	checks []error            // failed checks on a reply
}

func (l *rpcLog) add(d float64, err error) {
	l.mu.Lock()
	l.lat = append(l.lat, d)
	if err != nil {
		l.errs = append(l.errs, err)
	}
	l.mu.Unlock()
}

// fail records a failed check on a reply.
func (l *rpcLog) fail(err error) {
	l.mu.Lock()
	l.checks = append(l.checks, err)
	l.mu.Unlock()
}

func (l *rpcLog) cell(key string, d float64) {
	l.mu.Lock()
	l.cells[key] += d
	l.mu.Unlock()
}

// fleet drives an in-process durable gwcached on loopback: at most nproc
// clients submit the "all" manifest, claim and complete every cell (PUT +
// WAL fsync) and re-read every result. The results were simulated once in
// prepare, so the timed phase exercises dispatch, the server, the remote
// client, JSON and the WAL — and no simulation.
type fleet struct {
	exp     string
	results map[string]*harness.RunResult
	digests map[string]string
	items   []harness.WorkItem
	g       *gwcached
	log     *rpcLog
	status  harness.SweepStatus
	got     map[string]string // digest of each GET's result
	ctr     *countingTransport
	base    int64 // attempts before the pass
}

func newFleet(o options) workload {
	exp := "all"
	if o.tiny {
		exp = "fig1"
	}
	return &fleet{exp: exp}
}

// prepare simulates every manifest cell once and checks it against its
// pinned digest; the passes publish these results.
func (w *fleet) prepare() error {
	w.ctr = installTransport()
	items, err := harness.Manifest(w.exp, harness.DefaultOptions())
	if err != nil {
		return err
	}
	jobs := make([]harness.Job, len(items))
	for i, it := range items {
		jobs[i] = harness.Job{Label: it.Label, Spec: it.Spec}
	}
	w.results = map[string]*harness.RunResult{}
	w.digests = map[string]string{}
	for i, c := range harness.NewRunner(runtime.NumCPU()).Run(jobs) {
		if c.Err != nil {
			return fmt.Errorf("%s: %w", c.Job.Label, c.Err)
		}
		if err := expectCell(items[i].Key, &c.Result); err != nil {
			return err
		}
		res := c.Result
		w.results[items[i].Key] = &res
		w.digests[items[i].Key] = cellDigest(&res)
	}
	return nil
}

// setup enumerates the manifest (one Spec.Key per cell) and brings up a
// fresh durable server with its clients.
func (w *fleet) setup(int) error {
	items, err := harness.Manifest(w.exp, harness.DefaultOptions())
	if err != nil {
		return err
	}
	w.items = items
	w.g, err = startGWCached(runtime.NumCPU())
	if err != nil {
		return err
	}
	w.log = &rpcLog{cells: map[string]float64{}}
	w.got = map[string]string{}
	w.base = w.ctr.attempts.Load()
	return nil
}

func (w *fleet) run(tr *tracer, t *tally) {
	g, l := w.g, w.log
	var sub harness.SubmitResponse
	_, _, err := rpc(tr, l, "harness.submit", tr.newTrace(), 0, func() (err error) {
		sub, err = g.clients[0].SubmitSweep(w.items)
		return err
	})
	if err == nil && sub.Queued != len(w.items) {
		l.fail(fmt.Errorf("submit queued %d of %d cells", sub.Queued, len(w.items)))
	}
	var wg sync.WaitGroup
	for ci, c := range g.clients {
		wg.Add(1)
		go func(worker string, c *harness.RemoteCache) {
			defer wg.Done()
			for {
				var resp harness.ClaimResponse
				trace := tr.newTrace()
				sp, d, err := rpc(tr, l, "harness.claim", trace, 0, func() (err error) {
					resp, err = c.ClaimWork(worker, fleetBatch)
					return err
				})
				if err != nil || len(resp.Items) == 0 {
					// Empty: the queue is drained and any remaining cells
					// are leased to the other clients, which finish them.
					return
				}
				for _, it := range resp.Items {
					l.cell(it.Key, d/float64(len(resp.Items)))
					res, ok := w.results[it.Key]
					if !ok {
						l.fail(fmt.Errorf("claimed unknown cell %s", it.Key))
						continue
					}
					_, pd, _ := rpc(tr, l, "harness.complete", trace, sp.id, func() error {
						return c.CompleteWork(it.Key, res)
					})
					l.cell(it.Key, pd)
				}
			}
		}(fmt.Sprintf("perfbench-%d", ci), c)
	}
	wg.Wait()
	rpc(tr, l, "harness.status", tr.newTrace(), 0, func() (err error) {
		w.status, err = g.clients[0].SweepStatus()
		return err
	})
	// Warm re-sweep: every client GETs its share of the results back.
	var mu sync.Mutex
	for ci, c := range g.clients {
		wg.Add(1)
		go func(ci int, c *harness.RemoteCache) {
			defer wg.Done()
			for i := ci; i < len(w.items); i += len(g.clients) {
				key := w.items[i].Key
				var res *harness.RunResult
				var ok bool
				_, d, _ := rpc(tr, l, "harness.get", tr.newTrace(), 0, func() error {
					res, ok = c.Get(key)
					if !ok {
						return fmt.Errorf("GET %s: not found", key[:12])
					}
					return nil
				})
				l.cell(key, d)
				if ok {
					dg := cellDigest(res)
					mu.Lock()
					w.got[key] = dg
					mu.Unlock()
				}
			}
		}(ci, c)
	}
	wg.Wait()
	retries := w.ctr.attempts.Load() - w.base - int64(len(l.lat))
	appends := w.g.dd.Journal().Appends()
	// A zero-length span carries the pass's counters.
	tr.end(tr.begin("fleet.pass", 0, 0), map[string]float64{
		"retries": float64(retries), "appends": float64(appends), "cells": float64(len(w.items)),
	})
	for _, it := range w.items {
		t.cells = append(t.cells, l.cells[it.Key])
	}
	t.rpcs = append(t.rpcs, l.lat...)
}

// verify counts every request as one checked operation: it fails on an
// RPC error, and a GET fails when its result differs from the published
// one. Cells not done at the end of the pass fail too.
func (w *fleet) verify(t *tally) {
	l := w.log
	t.attempted += int64(len(l.lat))
	for _, err := range l.errs {
		t.fail("fleet rpc: %v", err)
	}
	for _, err := range l.checks {
		t.check("fleet", err)
	}
	for _, it := range w.items {
		if got, ok := w.got[it.Key]; ok && got != w.digests[it.Key] {
			t.fail("fleet GET %s: digest %s, published %s", it.Label, got, w.digests[it.Key])
		}
	}
	if w.status.Done != len(w.items) || !w.status.Complete() {
		t.check("fleet sweep", fmt.Errorf("%d of %d cells done", w.status.Done, len(w.items)))
	}
	if err := w.g.stop(); err != nil {
		t.check("fleet shutdown", err)
	}
	w.g = nil
}

func (w *fleet) finish(*tally) {}
