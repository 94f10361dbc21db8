package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"swarmhints/internal/gate"
	"swarmhints/internal/metrics"
	"swarmhints/internal/service"
	"swarmhints/internal/store"
	"swarmhints/swarm/api"
)

// Fleet shape. Two replicas with one worker each; the LRU is smaller than
// the grid's 81 keys so warm traffic also reads the shared store. The
// gateway keeps one point of a sweep in flight (swarmgate -concurrency 1):
// a cold sweep then runs one simulation at a time and a hedge races it on
// the other core, instead of both cores being saturated, where the sweep's
// time follows how much CPU the host's neighbours leave.
const (
	replicas         = 2
	workersPerRepl   = 1
	lruEntries       = 48
	maxPending       = 256 // swarmd's -max-pending default
	sweepConcurrency = 1
)

// fleet is one in-process gateway over its replicas, all on loopback and
// sharing one store directory.
type fleet struct {
	svcs    []*service.Service
	gw      *gate.Gateway
	servers []*http.Server
	wg      sync.WaitGroup
	url     string // gateway base URL
}

// startFleet boots the replicas and the gateway over storeDir. When spans
// is non-nil every replica request is recorded as a handler span.
func startFleet(storeDir string, seed int64, spans *spanLog) (*fleet, error) {
	f := &fleet{}
	var urls []string
	for i := 0; i < replicas; i++ {
		st, err := store.Open(storeDir, 0)
		if err != nil {
			f.close()
			return nil, fmt.Errorf("opening store: %w", err)
		}
		svc := service.New(service.Options{
			Workers: workersPerRepl, CacheEntries: lruEntries, Validate: true,
			Store: st, MaxPending: maxPending,
		})
		f.svcs = append(f.svcs, svc)
		var h http.Handler = svc.Handler()
		if spans != nil {
			h = spans.handler(i, h)
		}
		u, err := f.serve(h, svc.Context())
		if err != nil {
			f.close()
			return nil, err
		}
		urls = append(urls, u)
	}
	// The gateway mirrors cmd/swarmgate's defaults except for the sweep
	// concurrency; the balancer seed follows the workload seed so routing
	// replays per seed.
	gw, err := gate.New(gate.Options{
		Replicas: urls, Balancer: gate.BalancerAdaptive, PointTimeout: 5 * time.Minute,
		Retries: 3, ProbeInterval: time.Second, Hedge: true, Seed: seed,
		Concurrency: sweepConcurrency,
	})
	if err != nil {
		f.close()
		return nil, err
	}
	f.gw = gw
	if f.url, err = f.serve(gw.Handler(), gw.Context()); err != nil {
		f.close()
		return nil, err
	}
	return f, nil
}

// serve listens on an ephemeral loopback port and serves h until close.
func (f *fleet) serve(h http.Handler, base context.Context) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listen: %w", err)
	}
	srv := &http.Server{Handler: h, BaseContext: func(net.Listener) context.Context { return base }}
	f.servers = append(f.servers, srv)
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		_ = srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return "http://" + ln.Addr().String(), nil
}

// warmUp probes every replica from the gateway and opens the client's
// connections to the gateway.
func (f *fleet) warmUp(ctx context.Context, c *http.Client, conns int) error {
	f.gw.ProbeOnce(ctx)
	errs := make(chan error, conns)
	for i := 0; i < conns; i++ {
		go func() { errs <- api.NewClient(f.url, c).Healthz(ctx) }()
	}
	var err error
	for i := 0; i < conns; i++ {
		err = errors.Join(err, <-errs)
	}
	return err
}

// close stops the servers (gateway first), waits for them, and releases
// the gateway and services.
func (f *fleet) close() {
	for i := len(f.servers) - 1; i >= 0; i-- {
		_ = f.servers[i].Close()
	}
	f.wg.Wait()
	if f.gw != nil {
		f.gw.Close()
	}
	for _, s := range f.svcs {
		s.Close()
	}
	// The gateway talks to replicas over the default transport.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
}

// histSum is one histogram series' running total.
type histSum struct {
	sum   float64 // seconds
	count uint64
}

// layerSnap is a point-in-time read of every counter and histogram the
// program exposes for the layers the benchmark reports.
type layerSnap struct {
	gate     gate.Counters
	svc      service.Counters // summed over replicas (map fields unused)
	runs     uint64
	store    store.Counters // summed over the replicas' store handles
	stages   map[string]histSum
	storeOps map[string]histSum
}

func (f *fleet) snapshot() layerSnap {
	s := layerSnap{gate: f.gw.Counters(), stages: map[string]histSum{}, storeOps: map[string]histSum{}}
	for _, svc := range f.svcs {
		c := svc.Counters()
		s.svc.Hits += c.Hits
		s.svc.Misses += c.Misses
		s.svc.Coalesced += c.Coalesced
		s.svc.Shed += c.Shed
		for _, n := range c.RunsByBench {
			s.runs += n
		}
		s.store.Hits += c.Store.Hits
		s.store.Misses += c.Store.Misses
		s.store.Writes += c.Store.Writes
		s.store.Bytes += c.Store.Bytes
		s.store.Records += c.Store.Records
		for _, m := range svc.PromMetrics() {
			if m.Name == "swarmd_stage_duration_seconds" {
				addHist(s.stages, m.Hist, "stage")
			}
		}
	}
	addHist(s.storeOps, store.PromOps().Hist, "op")
	return s
}

// addHist accumulates histogram series keyed by one label's value.
func addHist(into map[string]histSum, series []metrics.PromHistSeries, label string) {
	for _, h := range series {
		t := into[h.Labels[label]]
		t.sum += h.Sum
		t.count += h.Count
		into[h.Labels[label]] = t
	}
}
