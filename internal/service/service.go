// Package service is the simulation-sweep serving layer behind cmd/swarmd:
// the point executor under the shared /v1 run, sweep and experiment front
// end (internal/front). It runs every simulation on a bounded worker fleet,
// coalesces duplicate in-flight configurations so each simulation executes
// at most once (singleflight), and answers repeats from a size-bounded LRU
// result cache keyed by the canonical configuration key internal/exp uses.
//
// Determinism contract: a simulation configuration fully determines its
// result, so the service can cache and coalesce freely — every response is
// byte-identical to what cmd/experiments -format json emits for the same
// configuration, no matter the worker count, cache state, or request
// interleaving. Each result is encoded once, as the canonical /v1/run body
// front.Body writes (exactly the CLIs' exp.ExportSet encoding), and every
// tier — the in-flight map, the LRU, the response — carries those bytes.
package service

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"

	"swarmhints/internal/exp"
	"swarmhints/internal/fault"
	"swarmhints/internal/front"
	"swarmhints/internal/metrics"
	"swarmhints/internal/obs"
	"swarmhints/internal/store"
	"swarmhints/swarm"
)

// Stage labels of the swarmd_stage_duration_seconds histogram family: the
// request-path phases every /v1 work request decomposes into. parse is
// body decode + validation, cache is the LRU probe, store is the
// persistent-tier probe, coalesce is time spent attached to another
// request's in-flight run, execute is the simulation itself (including
// the wait for a worker slot).
const (
	stageParse    = "parse"
	stageCache    = "cache"
	stageStore    = "store"
	stageCoalesce = "coalesce"
	stageExecute  = "execute"
)

// Config is one fully specified simulation configuration; its Key is the
// canonical key every result tier — the LRU, the in-flight coalescing map,
// and the persistent store — uses.
type Config = front.Config

// Options configures a Service.
type Options struct {
	// Workers bounds how many simulations run concurrently across ALL
	// requests (0 = GOMAXPROCS). Requests beyond the bound queue.
	Workers int
	// CacheEntries bounds the LRU result cache (0 = 4096 entries).
	CacheEntries int
	// Validate checks every executed run against its serial reference
	// before caching or serving it.
	Validate bool
	// Store, when non-nil, adds a persistent tier between the LRU and the
	// worker fleet: lookups go memory → disk → coalesced compute, executed
	// results are written through, and a restarted (or sibling) swarmd on
	// the same directory answers repeats with zero engine runs.
	Store *store.Store
	// MaxPending bounds admission on the work-bearing endpoints (/v1/run,
	// /v1/sweep, /v1/experiments/{id}): a request arriving while MaxPending
	// are already in progress is shed with 429 overloaded instead of joining
	// an unbounded queue. 0 disables shedding (the worker semaphore still
	// bounds execution, but queues grow without limit).
	MaxPending int
	// FaultScope prefixes this instance's fault-site names ("r1" resolves
	// "r1.swarmd.run.slow"), so tests hosting several in-process replicas —
	// which all share fault.Default — can target one. Production leaves it
	// empty.
	FaultScope string
}

// DefaultOptions returns the standard service configuration: GOMAXPROCS
// workers, a 4096-entry cache, and validation on.
func DefaultOptions() Options {
	return Options{Validate: true}
}

// Source says how a request's result was obtained.
type Source string

// Sources.
const (
	SourceCache     Source = "cache"     // answered from the LRU without any work
	SourceStore     Source = "store"     // answered from the persistent on-disk store
	SourceRun       Source = "run"       // this request executed the simulation
	SourceCoalesced Source = "coalesced" // attached to another request's in-flight run
	SourceMerged    Source = "merged"    // merged from a multi-seed fan-out
)

// flight is one in-progress simulation that duplicate requests attach to.
// It executes under its own context, derived from the service lifetime and
// canceled only when every interested request has gone away — so one
// caller's disconnect never fails the other callers coalesced onto it,
// while a flight nobody wants anymore stops consuming the fleet.
type flight struct {
	done   chan struct{} // closed when body/err are final
	refs   int           // interested requests; guarded by Service.mu
	cancel context.CancelFunc
	body   []byte
	err    error
}

// Counters is a point-in-time snapshot of the service's operational
// counters. Hits+Store.Hits+Misses+Coalesced equals the number of Body
// calls served; Misses counts the calls that led a new simulation attempt
// (a miss in every cache tier with no flight to join). Attempts that
// completed appear in RunsByBench — a miss whose caller disconnected while
// queued executes nothing, and a store-served request never reaches the
// engine at all.
type Counters struct {
	Hits      uint64 `prom:"swarmd_cache_hits_total,counter" help:"Requests answered from the LRU result cache."`
	Misses    uint64 `prom:"swarmd_cache_misses_total,counter" help:"Cache misses: requests that led a new simulation attempt."`
	Coalesced uint64 `prom:"swarmd_coalesced_total,counter" help:"Requests attached to an identical in-flight simulation."`
	Cached    int    `prom:"swarmd_cache_entries,gauge" help:"Results resident in the LRU cache."`
	Queued    int64  `prom:"swarmd_queue_depth,gauge" help:"Requests waiting for a worker-fleet slot."`
	InFlight  int64  `prom:"swarmd_inflight_runs,gauge" help:"Simulations executing right now."`
	Pending   int64  `prom:"swarmd_pending_requests,gauge" help:"Admitted work-bearing requests in progress."`
	Shed      uint64 `prom:"swarmd_shed_total,counter" help:"Requests rejected 429 overloaded at the admission bound."`

	RunsByBench    map[string]uint64 `prom:"swarmd_runs_total,counter,bench" help:"Completed simulations by benchmark."`
	ExperimentRuns map[string]uint64 `prom:"swarmd_experiment_runs_total,counter,id" help:"Experiment endpoint invocations by id."`

	// Store holds the persistent tier's own counters (zero value when the
	// service runs without a store); Store.Hits is the store-served request
	// count in the Hits+Store.Hits+Misses+Coalesced identity.
	Store store.Counters
}

// Service is the shared state of a swarmd instance.
type Service struct {
	opt    Options
	ctx    context.Context // lifetime; canceled by Close
	cancel context.CancelFunc
	sem    chan struct{} // worker-fleet slots

	hits      atomic.Uint64
	misses    atomic.Uint64
	coalesced atomic.Uint64
	queued    atomic.Int64
	inflight  atomic.Int64
	pending   atomic.Int64  // admitted work-bearing requests in progress
	shed      atomic.Uint64 // requests rejected at the admission bound

	// Fault-injection sites (internal/fault), resolved once at New under
	// opt.FaultScope. Disarmed — the production state — each costs one
	// atomic load where it is wired in.
	siteSlow     *fault.Site // swarmd.run.slow: delay before serving a run
	siteErr      *fault.Site // swarmd.run.err: fail a run with an injected 500
	siteStall    *fault.Site // swarmd.stream.stall: stall/kill a sweep mid-NDJSON
	siteOverload *fault.Site // swarmd.overload: force the admission bound shut

	// Request-stage latency histograms (internal/obs), resolved once like
	// the fault sites so observing stays allocation-free. stageVec renders
	// the family on /metrics.
	stageVec     *obs.HistVec
	histParse    *obs.Histogram
	histCache    *obs.Histogram
	histStore    *obs.Histogram
	histCoalesce *obs.Histogram
	histExecute  *obs.Histogram

	mu      sync.Mutex
	cache   *lru
	flights map[string]*flight
	runs    map[string]uint64 // per-bench completed simulation counts
	expRuns map[string]uint64 // per-experiment invocation counts
}

// New builds a Service.
func New(opt Options) *Service {
	if opt.Workers <= 0 {
		opt.Workers = runtime.GOMAXPROCS(0)
	}
	if opt.CacheEntries <= 0 {
		opt.CacheEntries = 4096
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Service{
		opt:     opt,
		ctx:     ctx,
		cancel:  cancel,
		sem:     make(chan struct{}, opt.Workers),
		cache:   newLRU(opt.CacheEntries),
		flights: make(map[string]*flight),
		runs:    make(map[string]uint64),
		expRuns: make(map[string]uint64),

		siteSlow:     fault.Scoped(fault.Default, opt.FaultScope, "swarmd.run.slow"),
		siteErr:      fault.Scoped(fault.Default, opt.FaultScope, "swarmd.run.err"),
		siteStall:    fault.Scoped(fault.Default, opt.FaultScope, "swarmd.stream.stall"),
		siteOverload: fault.Scoped(fault.Default, opt.FaultScope, "swarmd.overload"),

		stageVec: obs.NewHistVec("swarmd_stage_duration_seconds",
			"Request-path stage latency.", "stage", nil,
			stageParse, stageCache, stageStore, stageCoalesce, stageExecute),
	}
	s.histParse = s.stageVec.With(stageParse)
	s.histCache = s.stageVec.With(stageCache)
	s.histStore = s.stageVec.With(stageStore)
	s.histCoalesce = s.stageVec.With(stageCoalesce)
	s.histExecute = s.stageVec.With(stageExecute)
	return s
}

// Context returns the service's lifetime context. HTTP servers should use
// it as their BaseContext so Close cancels every in-flight request.
func (s *Service) Context() context.Context { return s.ctx }

// Close cancels the service's lifetime context, aborting queued work. Safe
// to call more than once.
func (s *Service) Close() { s.cancel() }

// Workers returns the worker-fleet bound.
func (s *Service) Workers() int { return s.opt.Workers }

// attachLocked registers one interested request on a flight: the flight's
// context is canceled when the last attached request's own context dies.
// Callers must hold s.mu. It fails on a flight every caller has already
// abandoned (its cancellation is in progress) — the caller should wait for
// the flight to clear and retry rather than ride a dying run.
func (s *Service) attachLocked(f *flight, ctx context.Context, leader bool) (release func(), ok bool) {
	if !leader && f.refs == 0 {
		return nil, false
	}
	f.refs++
	drop := func() {
		s.mu.Lock()
		f.refs--
		dead := f.refs == 0
		s.mu.Unlock()
		if dead {
			f.cancel()
		}
	}
	stop := context.AfterFunc(ctx, drop)
	return func() {
		if stop() { // AfterFunc never ran: hand the reference back ourselves
			drop()
		}
	}, true
}

// Body returns the canonical /v1/run body (front.Body) for one
// configuration: from the LRU cache when resident, by attaching to an
// identical in-flight run when one exists, from the persistent store when
// configured and warm, and by executing the simulation on the worker fleet
// otherwise. Exactly one of
// the four happens per call, and exactly one simulation executes no matter
// how many callers race on the same configuration — the store probe runs
// under the same in-flight coalescing as a compute, so racing callers share
// one disk read too. A result is encoded once, when it enters the service —
// after its run, or from the store's decoded snapshot — and every later
// hit writes those bytes as they are.
func (s *Service) Body(ctx context.Context, cfg Config) ([]byte, Source, error) {
	key := cfg.Key()
	for {
		ct := obs.StartTimer()
		s.mu.Lock()
		if body, ok := s.cache.get(key); ok {
			s.mu.Unlock()
			ct.Observe(s.histCache)
			s.hits.Add(1)
			return body, SourceCache, nil
		}
		f, ok := s.flights[key]
		if !ok {
			ct.Observe(s.histCache)
			break // become the leader below (still holding s.mu)
		}
		release, live := s.attachLocked(f, ctx, false)
		s.mu.Unlock()
		ct.Observe(s.histCache)
		if !live {
			// Every caller abandoned this flight and its cancellation is in
			// progress; wait for it to clear the map and start fresh.
			select {
			case <-f.done:
				continue
			case <-ctx.Done():
				return nil, SourceCoalesced, ctx.Err()
			}
		}
		s.coalesced.Add(1)
		defer release()
		wt := obs.StartTimer()
		select {
		case <-f.done:
			wt.Observe(s.histCoalesce)
			return f.body, SourceCoalesced, f.err
		case <-ctx.Done():
			wt.Observe(s.histCoalesce)
			return nil, SourceCoalesced, ctx.Err()
		}
	}
	f := &flight{done: make(chan struct{})}
	fctx, fcancel := context.WithCancel(s.ctx)
	f.cancel = fcancel
	// The flight context derives from the service lifetime (not the
	// request) so coalesced followers survive the leader's disconnect —
	// but it should still carry the leader's trace identity, so the
	// store-probe, execute, and runner spans land in the request's trace.
	fctx = obs.ContextWithSpan(fctx, obs.SpanFromContext(ctx))
	release, _ := s.attachLocked(f, ctx, true)
	defer release()
	s.flights[key] = f
	s.mu.Unlock()

	src := SourceRun
	if s.opt.Store != nil {
		st := obs.StartTimer()
		_, ssp := obs.StartSpan(fctx, "swarmd.store.probe")
		sn, ok := s.opt.Store.GetSnapshot(key)
		if ssp != nil {
			if ok {
				ssp.SetAttr("hit", "true")
			} else {
				ssp.SetAttr("hit", "false")
			}
			ssp.End()
		}
		st.Observe(s.histStore)
		if ok {
			f.body, f.err = front.Body(cfg, sn)
			src = SourceStore
		}
	}
	if src == SourceRun {
		s.misses.Add(1)
		et := obs.StartTimer()
		ectx, esp := obs.StartSpan(fctx, "swarmd.execute")
		esp.SetAttr("key", key)
		st, err := s.execute(ectx, cfg)
		esp.End()
		et.Observe(s.histExecute)
		if err == nil {
			f.body, err = front.Body(cfg, st.Snapshot())
		}
		if err == nil && s.opt.Store != nil {
			// Write-through, best effort: an unwritable store degrades to a
			// read tier (its write-error counter records the failures), it
			// never fails a request that already has its result.
			_ = s.opt.Store.PutStats(key, st)
		}
		f.err = err
	}

	s.mu.Lock()
	delete(s.flights, key)
	if f.err == nil {
		s.cache.add(key, f.body)
		if src == SourceRun {
			s.runs[cfg.Point.Name]++
		}
	}
	s.mu.Unlock()
	close(f.done)
	fcancel() // flight finished; release its context resources
	return f.body, src, f.err
}

// execute runs one simulation on the bounded worker fleet under the
// flight's context. It is the one gate every simulation the service
// performs passes through, so the -workers bound holds globally and the
// queue/in-flight gauges see all of them. Waiting for a slot is
// interruptible; once a slot is held the run itself is not (a simulation is
// a pure function with no blocking points), so a flight abandoned by every
// caller frees its queue position immediately and its worker after at most
// one run.
func (s *Service) execute(ctx context.Context, cfg Config) (*swarm.Stats, error) {
	s.queued.Add(1)
	select {
	case s.sem <- struct{}{}:
		s.queued.Add(-1)
	case <-ctx.Done():
		s.queued.Add(-1)
		return nil, ctx.Err()
	}
	s.inflight.Add(1)
	defer func() {
		s.inflight.Add(-1)
		<-s.sem
	}()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return exp.RunPoint(cfg.Point, cfg.Scale, cfg.Seed, s.opt.Validate)
}

// countExperiment records one experiment-endpoint invocation.
func (s *Service) countExperiment(id string) {
	s.mu.Lock()
	s.expRuns[id]++
	s.mu.Unlock()
}

// Counters snapshots the operational counters.
func (s *Service) Counters() Counters {
	s.mu.Lock()
	runs := make(map[string]uint64, len(s.runs))
	for k, v := range s.runs {
		runs[k] = v
	}
	expRuns := make(map[string]uint64, len(s.expRuns))
	for k, v := range s.expRuns {
		expRuns[k] = v
	}
	cached := s.cache.len()
	s.mu.Unlock()
	c := Counters{
		Hits:           s.hits.Load(),
		Misses:         s.misses.Load(),
		Coalesced:      s.coalesced.Load(),
		Cached:         cached,
		Queued:         s.queued.Load(),
		InFlight:       s.inflight.Load(),
		Pending:        s.pending.Load(),
		Shed:           s.shed.Load(),
		RunsByBench:    runs,
		ExperimentRuns: expRuns,
	}
	if s.opt.Store != nil {
		c.Store = s.opt.Store.Counters()
	}
	return c
}

// PromMetrics renders the operational counters as Prometheus metric
// families for the /metrics endpoint. The store families appear only when
// the persistent tier is configured.
func (s *Service) PromMetrics() []metrics.PromMetric {
	c := s.Counters()
	fams := append(metrics.PromFamilies(c), s.stageVec.Prom())
	if s.opt.Store != nil {
		fams = append(append(fams, metrics.PromFamilies(c.Store)...), store.PromOps())
	}
	return fams
}
