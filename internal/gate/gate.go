// Package gate is the fleet front door behind cmd/swarmgate: an HTTP
// gateway exposing the same /v1 surface as a single swarmd (swarm/api
// contract). Its run, sweep and experiment endpoints are the shared front
// end (internal/front), which decomposes sweep grids and experiments
// point-by-point and reassembles the response; the gateway supplies the
// point executor, which routes each point to one of a fleet of swarmd
// replicas by rendezvous hashing of the point's configuration key, so
// each point has a home replica whose LRU holds it, and executes it with
// a per-point timeout and bounded retry-on-retryable against a different
// replica. A replica's answer is relayed as the bytes
// it sent, and only once it checks out as the canonical record of the
// point asked for — so gateway output is byte-identical to a single
// swarmd's for the same request.
//
// A replica leaves the candidate set two ways: its health flag drops
// (a background prober polls every replica's /healthz, and in-band
// transport failures and shutting_down responses drain it), or its
// circuit breaker opens after a run of consecutive failures. A replica
// killed mid-sweep therefore stops receiving new points, its in-flight
// points are re-routed to surviving replicas, and the sweep still
// completes.
package gate

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"swarmhints/internal/cliutil"
	"swarmhints/internal/fault"
	"swarmhints/internal/front"
	"swarmhints/internal/hashutil"
	"swarmhints/internal/metrics"
	"swarmhints/internal/obs"
	"swarmhints/swarm/api"
)

// Attempt-outcome labels of the swarmgate_attempt_duration_seconds
// histogram family. Every per-point routing attempt lands in exactly one:
// the winner's outcome describes how it won (first try, retry, or hedge),
// a healthy replica held off by its open breaker records a zero-duration
// breaker-skip, and losers record failure or canceled.
const (
	attemptOK          = "ok"
	attemptRetry       = "retry"
	attemptHedgeWin    = "hedge-win"
	attemptBreakerSkip = "breaker-skip"
	attemptFailure     = "failure"
	attemptCanceled    = "canceled"
)

// Options configures a Gateway.
type Options struct {
	// Replicas are the swarmd base URLs the gateway fans out over.
	Replicas []string
	// Balancer names the routing policy. The key-routed policy is the
	// only one: New accepts "" or BalancerAdaptive and rejects any other
	// name.
	Balancer string
	// PointTimeout bounds each routing attempt of one point (0 = none).
	// A timed-out attempt counts as a failure and retries elsewhere.
	PointTimeout time.Duration
	// Retries is how many additional attempts a retryable point failure
	// gets, each against a different replica when one exists (0 = no
	// retries; negative is treated as 0). swarmgate's -retries flag
	// defaults to 3.
	Retries int
	// Concurrency bounds how many points the gateway keeps in flight per
	// request (0 = 4 × replicas).
	Concurrency int
	// ProbeInterval is the background /healthz polling period (0 = 1s;
	// negative disables the prober — in-band outcomes still maintain
	// health, and tests drive ProbeOnce directly). Each wait is jittered
	// ±25% so a fleet of gateways doesn't synchronize its probe bursts.
	ProbeInterval time.Duration
	// ProbeTimeout bounds each individual /healthz probe (0 = 2s). A
	// replica slower than this to answer its health check is treated as
	// unhealthy even if the TCP connection succeeds.
	ProbeTimeout time.Duration
	// BreakerThreshold is how many consecutive failures open a replica's
	// circuit breaker (0 = 5; negative disables breakers entirely).
	BreakerThreshold int
	// BreakerCooldown is how long an open breaker holds attempts off
	// before admitting a half-open probe (0 = 2s).
	BreakerCooldown time.Duration
	// RetryBackoff is the base of the exponential backoff with full jitter
	// between retry attempts: retry a sleeps Uniform(0, base·2^(a-1)),
	// capped at maxRetryBackoff (0 = 5ms; negative disables backoff).
	RetryBackoff time.Duration
	// Hedge enables straggler hedging: a point still unanswered after the
	// fleet's ~p95 latency (EWMA-estimated) is raced on a second replica;
	// the first success wins and the loser is canceled without a verdict.
	Hedge bool
	// Seed perturbs the routing-key hash (so each seed gives each point
	// another home replica) and seeds the jitter source (default 1).
	Seed int64
	// FaultAdmin mounts the test-only /v1/faults admin endpoint on the
	// gateway handler. Never enable it on a production-facing listener.
	FaultAdmin bool
}

// Retry-backoff bounds.
const (
	DefaultRetryBackoff = 5 * time.Millisecond
	maxRetryBackoff     = 250 * time.Millisecond
)

// DefaultProbeTimeout bounds one background /healthz probe.
const DefaultProbeTimeout = 2 * time.Second

// replica is the gateway's view of one swarmd instance.
type replica struct {
	url    string
	client *api.Client
	brk    *breaker // nil when breakers are disabled

	healthy  atomic.Bool
	inflight atomic.Int64
	routed   atomic.Uint64 // attempts routed here (including retries and hedges)
	retried  atomic.Uint64 // attempts routed here that were retries of a failure elsewhere
	failed   atomic.Uint64 // attempts that failed here
}

// Gateway routes /v1 requests over a swarmd replica fleet.
type Gateway struct {
	opt      Options
	replicas []*replica
	lat      latencyEWMA // fleet-wide success latency, drives the hedge delay

	// every lists all replica indexes and others[x] every index but x:
	// pick's candidate sets when every eligible replica is healthy and
	// admitted, shared so the common case builds no slice.
	every  []int
	others [][]int

	rngMu sync.Mutex
	rng   *rand.Rand // jitter source (probe interval, retry backoff)

	siteAttempt *fault.Site // gate.attempt: fail/delay a client-path attempt

	// Attempt-latency histograms (internal/obs), one per outcome,
	// resolved once like fault sites so the observe path stays
	// allocation-free. attemptVec renders the family on /metrics.
	attemptVec      *obs.HistVec
	histOK          *obs.Histogram
	histRetry       *obs.Histogram
	histHedgeWin    *obs.Histogram
	histBreakerSkip *obs.Histogram
	histFailure     *obs.Histogram
	histCanceled    *obs.Histogram

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	sweeps    atomic.Uint64
	points    atomic.Uint64
	hedged    atomic.Uint64 // hedge attempts launched
	hedgeWins atomic.Uint64 // points won by the hedge, not the primary
}

// New builds a Gateway and starts its health prober (unless disabled).
func New(opt Options) (*Gateway, error) {
	if len(opt.Replicas) == 0 {
		return nil, fmt.Errorf("gate: at least one replica required")
	}
	if opt.Retries < 0 {
		opt.Retries = 0
	}
	if opt.Concurrency <= 0 {
		opt.Concurrency = 4 * len(opt.Replicas)
	}
	if opt.Seed == 0 {
		opt.Seed = 1
	}
	if opt.ProbeInterval == 0 {
		opt.ProbeInterval = time.Second
	}
	if opt.ProbeTimeout <= 0 {
		opt.ProbeTimeout = DefaultProbeTimeout
	}
	if opt.Balancer != "" && opt.Balancer != BalancerAdaptive {
		return nil, fmt.Errorf("gate: unknown balancer %q (the only one is %s)", opt.Balancer, BalancerAdaptive)
	}
	g := &Gateway{
		opt:         opt,
		rng:         rand.New(rand.NewSource(opt.Seed)),
		siteAttempt: fault.Default.Site("gate.attempt"),
		attemptVec: obs.NewHistVec("swarmgate_attempt_duration_seconds",
			"Per-point routing attempt latency by outcome.", "outcome", nil,
			attemptOK, attemptRetry, attemptHedgeWin, attemptBreakerSkip,
			attemptFailure, attemptCanceled),
	}
	g.histOK = g.attemptVec.With(attemptOK)
	g.histRetry = g.attemptVec.With(attemptRetry)
	g.histHedgeWin = g.attemptVec.With(attemptHedgeWin)
	g.histBreakerSkip = g.attemptVec.With(attemptBreakerSkip)
	g.histFailure = g.attemptVec.With(attemptFailure)
	g.histCanceled = g.attemptVec.With(attemptCanceled)
	g.ctx, g.cancel = context.WithCancel(context.Background())
	for _, u := range opt.Replicas {
		r := &replica{
			url:    u,
			client: api.NewClient(u, nil),
			brk:    newBreaker(opt.BreakerThreshold, opt.BreakerCooldown),
		}
		r.healthy.Store(true) // optimistic: demoted by the first failed probe or attempt
		g.replicas = append(g.replicas, r)
		g.every = append(g.every, len(g.every))
	}
	for x := range g.replicas {
		others := make([]int, 0, len(g.replicas)-1)
		for _, i := range g.every {
			if i != x {
				others = append(others, i)
			}
		}
		g.others = append(g.others, others)
	}
	if opt.ProbeInterval > 0 {
		g.wg.Add(1)
		go g.probeLoop()
	}
	return g, nil
}

// Close stops the prober and aborts in-flight routing. Safe to call more
// than once.
func (g *Gateway) Close() {
	g.cancel()
	g.wg.Wait()
}

// Context returns the gateway's lifetime context. HTTP servers should use
// it as their BaseContext so Close cancels every in-flight request.
func (g *Gateway) Context() context.Context { return g.ctx }

// probeLoop polls every replica's /healthz until Close. Each wait is an
// independently jittered interval (±25%) rather than a fixed ticker, so
// several gateways probing the same fleet — or one gateway restarted in a
// crash loop — spread their probe bursts instead of synchronizing them.
func (g *Gateway) probeLoop() {
	defer g.wg.Done()
	for {
		t := time.NewTimer(g.jittered(g.opt.ProbeInterval))
		select {
		case <-g.ctx.Done():
			t.Stop()
			return
		case <-t.C:
			g.ProbeOnce(g.ctx)
		}
	}
}

// jittered scales d by a uniform factor in [0.75, 1.25).
func (g *Gateway) jittered(d time.Duration) time.Duration {
	g.rngMu.Lock()
	f := 0.75 + 0.5*g.rng.Float64()
	g.rngMu.Unlock()
	return time.Duration(float64(d) * f)
}

// backoffDelay returns the sleep before retry attempt a (1-based):
// exponential with full jitter, Uniform(0, min(base·2^(a-1), cap)). Full
// jitter — drawing from the whole interval, not around its midpoint —
// maximally decorrelates retries that failed together, which is exactly
// the situation after a replica crash dumps its in-flight points back on
// the fleet at once.
func (g *Gateway) backoffDelay(a int) time.Duration {
	base := g.opt.RetryBackoff
	if base < 0 {
		return 0
	}
	if base == 0 {
		base = DefaultRetryBackoff
	}
	d := base << uint(a-1)
	if d <= 0 || d > maxRetryBackoff {
		d = maxRetryBackoff
	}
	g.rngMu.Lock()
	f := g.rng.Float64()
	g.rngMu.Unlock()
	return time.Duration(f * float64(d))
}

// ProbeOnce probes every replica's /healthz once, concurrently, and
// updates the health flags. Exported so tests (and operators' debug
// tooling) can force a probe cycle deterministically.
func (g *Gateway) ProbeOnce(ctx context.Context) {
	var wg sync.WaitGroup
	for _, r := range g.replicas {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			pctx, cancel := context.WithTimeout(ctx, g.opt.ProbeTimeout)
			defer cancel()
			r.healthy.Store(r.client.Healthz(pctx) == nil)
		}()
	}
	wg.Wait()
}

// pick chooses the replica for the next attempt of the work whose routing
// hint is key: healthy replicas whose circuit breaker admits traffic first,
// then any healthy replica, then anyone — excluding the one that just
// failed whenever an alternative exists, and degrading rather than refusing
// to route, so a wrongly-drained (or fully tripped) fleet self-heals
// through in-band successes.
func (g *Gateway) pick(key uint64, exclude int) int {
	if cands := g.allAdmitted(exclude); cands != nil {
		return pickHome(key, cands)
	}
	var admitted, healthy, all []int
	for i, r := range g.replicas {
		if i == exclude {
			continue
		}
		all = append(all, i)
		if !r.healthy.Load() {
			continue
		}
		healthy = append(healthy, i)
		if r.brk.ready() {
			admitted = append(admitted, i)
		} else {
			// A healthy replica held off by its open breaker: record the
			// exclusion as a zero-duration breaker-skip observation so the
			// histogram shows how much traffic breakers are deflecting.
			g.histBreakerSkip.Observe(0)
		}
	}
	cands := admitted
	if len(cands) == 0 {
		cands = healthy
	}
	if len(cands) == 0 {
		cands = all
	}
	if len(cands) == 0 {
		return exclude // single-replica fleet: no alternative exists
	}
	return pickHome(key, cands)
}

// allAdmitted returns the shared candidate set of every replica but
// exclude when all of them are healthy and admitted by their breakers, and
// nil when some are not (or none remain) and pick must build the set.
func (g *Gateway) allAdmitted(exclude int) []int {
	cands := g.every
	if exclude >= 0 {
		cands = g.others[exclude]
	}
	if len(cands) == 0 {
		return nil
	}
	for _, i := range cands {
		if r := g.replicas[i]; !r.healthy.Load() || !r.brk.ready() {
			return nil
		}
	}
	return cands
}

// routeKey hashes s — a point's canonical configuration key — into pick's
// routing hint: 64-bit FNV-1a over the bytes, mixed with the gateway seed.
func (g *Gateway) routeKey(s string) uint64 {
	const offset64, prime64 = 14695981039346656037, 1099511628211
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return hashutil.SplitMix64(h ^ uint64(g.opt.Seed))
}

// runPoint routes one point as one canonical /v1/run — scale and seed
// explicit, the scheduler in its parseable spelling: pick a replica,
// execute the (possibly hedged) attempt, and on a retryable failure back
// off with full jitter and try again against a different replica, up to
// the retry bound. Every attempt routes on the hash of the point's canonical
// key — the bytes the replicas' LRUs and the store key on — so a point goes
// to the same home replica each time it is asked for, and a retry or hedge
// to the key's next-ranked replica. It returns the replica that served the
// point alongside its body.
func (g *Gateway) runPoint(ctx context.Context, cfg front.Config) ([]byte, string, *api.Error) {
	key := g.routeKey(cfg.Key())
	p := cfg.Point
	rr := api.Point{
		Bench: p.Name, Sched: cliutil.SchedFlag(p.Kind),
		Cores: p.Cores, Profile: p.Profile,
	}.Run(cfg.Scale.String(), cfg.Seed)
	attempts := g.opt.Retries + 1
	var lastErr *api.Error
	last := -1
	for a := 0; a < attempts; a++ {
		if err := ctx.Err(); err != nil {
			return nil, "", api.Errorf(api.CodeShuttingDown, "%v", err)
		}
		if a > 0 {
			if d := g.backoffDelay(a); d > 0 {
				t := time.NewTimer(d)
				select {
				case <-ctx.Done():
					t.Stop()
					return nil, "", api.Errorf(api.CodeShuttingDown, "%v", ctx.Err())
				case <-t.C:
				}
			}
		}
		i := g.pick(key, last)
		body, idx, ae := g.attempt(ctx, cfg, key, rr, i, a > 0)
		if ae == nil {
			return body, g.replicas[idx].url, nil
		}
		if cerr := ctx.Err(); cerr != nil {
			// The caller's own context died mid-attempt: the attempt told
			// us nothing about the replica (it left no mark) — report the
			// cancellation.
			return nil, "", api.Errorf(api.CodeShuttingDown, "%v", cerr)
		}
		if !ae.Retryable {
			// Deterministic failure: every replica would answer the same.
			url := ""
			if idx >= 0 {
				url = g.replicas[idx].url
			}
			return nil, url, ae
		}
		lastErr = ae
		if idx >= 0 {
			last = idx
		}
	}
	return nil, "", lastErr
}

// attempt executes one routing attempt of a point against the primary
// replica, optionally racing a hedge replica when the primary straggles
// past the fleet's estimated p95 latency. The first success wins and
// settles its replica's standing; the loser is canceled and leaves no mark
// on its replica — no failure counter, no breaker or health verdict —
// because losing a race says nothing about a replica's health. A
// replica's body counts as a success only when front.CheckRun
// finds it the canonical record of cfg; anything else is a malformed answer
// from a reachable instance — retryable elsewhere, without a health
// demotion. It returns the winning body and replica index, or the first
// real failure (and its replica index, -1 if none is attributable).
func (g *Gateway) attempt(ctx context.Context, cfg front.Config, key uint64, rr api.RunRequest, primary int, retry bool) ([]byte, int, *api.Error) {
	actx, cancel := context.WithCancel(ctx)
	defer cancel() // cancels the loser the moment the winner returns

	type outcome struct {
		idx  int
		body []byte
		err  *api.Error
		won  bool
	}
	// Buffered for both launches: a loser settling after runPoint moved on
	// must never block its goroutine forever.
	results := make(chan outcome, 2)
	var won atomic.Bool

	launch := func(idx int, hedge bool) {
		r := g.replicas[idx]
		r.routed.Add(1)
		if retry {
			r.retried.Add(1)
		}
		if hedge {
			g.hedged.Add(1)
		}
		probe := r.brk.enter()
		r.inflight.Add(1)
		go func() {
			defer r.inflight.Add(-1)
			cctx, ccancel := actx, context.CancelFunc(func() {})
			if g.opt.PointTimeout > 0 {
				cctx, ccancel = context.WithTimeout(actx, g.opt.PointTimeout)
			}
			defer ccancel()
			// The attempt span carries the trace to the replica: client.RunBody
			// propagates it in the X-Swarm-Trace header, so the replica's
			// server-side spans land in the same trace with this span as
			// parent — retries and hedges are distinguishable by attribute.
			cctx, sp := obs.StartSpan(cctx, "gate.attempt")
			sp.SetAttr("replica", r.url)
			sp.SetAttr("point", fmt.Sprintf("%s/%s/%d", rr.Bench, rr.Sched, rr.Cores))
			if retry {
				sp.SetAttr("retry", "true")
			}
			if hedge {
				sp.SetAttr("hedge", "true")
			}
			finish := func(outcome string, lat time.Duration, h *obs.Histogram) {
				sp.SetAttr("outcome", outcome)
				sp.End()
				h.Observe(lat)
			}
			start := time.Now()
			var body []byte
			var err error
			if f, ok := g.siteAttempt.Fire(); ok {
				if err = f.Sleep(cctx); err == nil {
					err = f.Err
				}
			}
			if err == nil {
				body, err = r.client.RunBody(cctx, rr)
			}
			lat := time.Since(start)
			if err == nil {
				if cerr := front.CheckRun(cfg, body); cerr != nil {
					// A 200 that is not this point's record — another point's
					// labels, a wrong schema, a cut or padded body — must never
					// be relayed. It is instance-bound, so retry against a
					// different replica; the replica is reachable, so no
					// health demotion.
					err = &api.Error{Code: api.CodeInternal, Message: "replica " + cerr.Error(), Retryable: true}
				}
			}
			switch {
			case err == nil:
				if won.CompareAndSwap(false, true) {
					r.brk.success()
					r.healthy.Store(true) // in-band recovery
					g.lat.observe(lat)
					g.points.Add(1)
					if hedge {
						g.hedgeWins.Add(1)
					}
					switch {
					case hedge:
						finish(attemptHedgeWin, lat, g.histHedgeWin)
					case retry:
						finish(attemptRetry, lat, g.histRetry)
					default:
						finish(attemptOK, lat, g.histOK)
					}
					results <- outcome{idx: idx, body: body, won: true}
					return
				}
				// Both raced legs succeeded; the sibling won. Identical
				// records either way (determinism), so this one only
				// releases its breaker probe.
				r.brk.canceled(probe)
				finish(attemptCanceled, lat, g.histCanceled)
				results <- outcome{idx: idx}
			case ctx.Err() != nil || actx.Err() != nil:
				// The caller disconnected, or the sibling won and canceled
				// this leg: either way the attempt tells us nothing about
				// the replica. Leave failed counters, breaker, and health
				// untouched — a disconnect must not trip a breaker or demote
				// a healthy replica.
				r.brk.canceled(probe)
				finish(attemptCanceled, lat, g.histCanceled)
				results <- outcome{idx: idx, err: api.Errorf(api.CodeShuttingDown, "%v", err)}
			default:
				ae := api.AsError(err)
				r.failed.Add(1)
				r.brk.failure()
				finish(attemptFailure, lat, g.histFailure)
				if ae.Code == api.CodeUnavailable || ae.Code == api.CodeShuttingDown {
					// Unreachable or draining: stop sending new points here
					// until a probe (or an in-band success) revives it.
					r.healthy.Store(false)
				}
				results <- outcome{idx: idx, err: ae}
			}
		}()
	}

	launch(primary, false)
	pending := 1
	var hedgeC <-chan time.Time
	if g.opt.Hedge && len(g.replicas) > 1 {
		if d, ok := g.lat.hedgeDelay(); ok {
			t := time.NewTimer(d)
			defer t.Stop()
			hedgeC = t.C
		}
	}
	var firstErr *api.Error
	errIdx := -1
	for pending > 0 {
		select {
		case <-hedgeC:
			hedgeC = nil // hedge at most once per attempt
			if j := g.pick(key, primary); j != primary {
				launch(j, true)
				pending++
			}
		case o := <-results:
			pending--
			if o.won {
				return o.body, o.idx, nil
			}
			if o.err != nil && firstErr == nil {
				firstErr, errIdx = o.err, o.idx
			}
		}
	}
	if firstErr == nil { // unreachable: a non-winner always carries an error
		firstErr = api.Errorf(api.CodeInternal, "attempt settled without an outcome")
	}
	return nil, errIdx, firstErr
}

// Counters is a point-in-time snapshot of the gateway's operational
// counters, keyed by replica URL.
type Counters struct {
	Points       uint64             `prom:"swarmgate_points_total,counter" help:"Points served across all requests."`
	Sweeps       uint64             `prom:"swarmgate_sweeps_total,counter" help:"Sweep requests accepted."`
	Hedged       uint64             `prom:"swarmgate_hedged_total,counter" help:"Hedge attempts launched against straggling points."`
	HedgeWins    uint64             `prom:"swarmgate_hedge_wins_total,counter" help:"Points whose hedge finished before the primary."`
	BreakerOpens map[string]uint64  `prom:"swarmgate_replica_breaker_opens_total,counter,replica" help:"Circuit-breaker trips per replica."`
	BreakerOpen  map[string]float64 `prom:"swarmgate_replica_breaker_open,gauge,replica" help:"Breaker position per replica (0 closed, 0.5 half-open, 1 open)."`
	Routed       map[string]uint64  `prom:"swarmgate_replica_routed_total,counter,replica" help:"Attempts routed to each replica (retries included)."`
	Retried      map[string]uint64  `prom:"swarmgate_replica_retried_total,counter,replica" help:"Retry attempts routed to each replica after a failure elsewhere."`
	Failed       map[string]uint64  `prom:"swarmgate_replica_failed_total,counter,replica" help:"Attempts that failed on each replica."`
	Healthy      map[string]bool    `prom:"swarmgate_replica_healthy,gauge,replica" help:"Replica health (1 = in the candidate set)."`
	Inflight     map[string]int64   `prom:"swarmgate_replica_inflight,gauge,replica" help:"Attempts in flight per replica."`

	BreakerState map[string]string // closed | open | half-open
}

// Counters snapshots the operational counters.
func (g *Gateway) Counters() Counters {
	n := len(g.replicas)
	c := Counters{
		Points:       g.points.Load(),
		Sweeps:       g.sweeps.Load(),
		Hedged:       g.hedged.Load(),
		HedgeWins:    g.hedgeWins.Load(),
		BreakerOpens: make(map[string]uint64, n),
		BreakerOpen:  make(map[string]float64, n),
		Routed:       make(map[string]uint64, n),
		Retried:      make(map[string]uint64, n),
		Failed:       make(map[string]uint64, n),
		Healthy:      make(map[string]bool, n),
		Inflight:     make(map[string]int64, n),
		BreakerState: make(map[string]string, n),
	}
	for _, r := range g.replicas {
		st, opens := r.brk.snapshot()
		c.BreakerOpens[r.url] = opens
		c.BreakerOpen[r.url] = st.position()
		c.Routed[r.url] = r.routed.Load()
		c.Retried[r.url] = r.retried.Load()
		c.Failed[r.url] = r.failed.Load()
		c.Healthy[r.url] = r.healthy.Load()
		c.Inflight[r.url] = r.inflight.Load()
		c.BreakerState[r.url] = st.String()
	}
	return c
}

// PromMetrics renders the gateway counters as Prometheus metric families
// for the /metrics endpoint.
func (g *Gateway) PromMetrics() []metrics.PromMetric {
	return append(metrics.PromFamilies(g.Counters()), g.attemptVec.Prom())
}
