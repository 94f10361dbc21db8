package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"swarmhints/internal/exp"
	"swarmhints/internal/obs"
	"swarmhints/swarm"
	"swarmhints/swarm/api"
)

// Traffic shape. The warm mix is mostly single-point runs, some
// one-benchmark sweeps (half NDJSON, half JSON) and a few seeds:4 runs;
// popularity over the grid's points is Zipf-skewed. The open mix adds
// cold tiny-scale points, each sent by 2–3 arrivals close together so
// the fleet can coalesce them.
const (
	zipfS       = 1.1
	seedCfgs    = 3 // configurations the seeds:4 runs ask for
	seedsPerRun = 4

	warmRun     = 0.88
	warmSweep   = 0.09 // the rest are seeds:4 runs
	warmClients = 1    // closed-loop clients, one connection each

	openRate   = 150.0 // Poisson arrival events per second
	openCold   = 0.02  // share of events that start a cold group
	openSweep  = 0.05  // share of events that are warm NDJSON sweeps
	coldSpread = 3 * time.Millisecond
)

// coldConfig is the open mix's cold point: one configuration at fresh input
// seeds. Tiny grid points cost from 1 to over 100 ms of engine time, so
// drawing them would make the mix's tail depend on the draw; this one costs
// about 20 ms (des under hints at 16 cores).
var coldConfig = exp.Point{Name: "des", Kind: swarm.Hints, Cores: 16}

// request is one distinct request a workload sends, with the bytes a
// correct fleet answers.
type request struct {
	kind string // run | sweep | seeds | cold
	body []byte
	path string
	ref  []byte
}

// layout numbers the distinct requests of the warm and open mixes: one run
// per grid point, an NDJSON and a JSON sweep per benchmark, the seeds:4
// runs, then the open mix's cold points.
type layout struct{ points, benches int }

func (l layout) run(i int) int { return i }
func (l layout) sweep(b int, json bool) int {
	if json {
		return l.points + l.benches + b
	}
	return l.points + b
}
func (l layout) seeds(k int) int { return l.points + 2*l.benches + k }
func (l layout) cold(g int) int  { return l.points + 2*l.benches + seedCfgs + g }

// hotOrder is the grid's popularity order for one seed: rank -> point
// index. The seed shuffles the points within each core count, and ranks
// cycle through the core counts, so every seed's mix has the same record
// sizes (a record grows with its core count) while the seed still picks
// which benchmarks and schedulers are hot.
func hotOrder(seed int64, points []exp.Point) []int {
	r := rand.New(rand.NewSource(seed))
	groups := make([][]int, len(gridCores))
	for i, p := range points {
		for g, c := range gridCores {
			if p.Cores == c {
				groups[g] = append(groups[g], i)
			}
		}
	}
	var order []int
	for _, g := range groups {
		r.Shuffle(len(g), func(i, j int) { g[i], g[j] = g[j], g[i] })
	}
	for k := 0; len(order) < len(points); k++ {
		for _, g := range groups {
			if k < len(g) {
				order = append(order, g[k])
			}
		}
	}
	return order
}

// streamRand is the PRNG of one request stream (client or schedule).
func streamRand(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream) + 1))
}

// warmSequence is one closed-loop client's request sequence.
func warmSequence(seed int64, client, n int, l layout, points []exp.Point) []int {
	hot := hotOrder(seed, points)
	r := streamRand(seed, client)
	z := rand.NewZipf(r, zipfS, 1, uint64(l.points-1))
	seq := make([]int, n)
	for i := range seq {
		switch u := r.Float64(); {
		case u < warmRun:
			seq[i] = l.run(hot[z.Uint64()])
		case u < warmRun+warmSweep:
			seq[i] = l.sweep(r.Intn(l.benches), r.Intn(2) == 1)
		default:
			seq[i] = l.seeds(r.Intn(seedCfgs))
		}
	}
	return seq
}

// arrival is one open-loop request: when it is due after the start, and
// which request it sends.
type arrival struct {
	due time.Duration
	req int
}

// coldPoint is a point no tier holds: tiny scale at a fresh seed.
type coldPoint struct {
	point exp.Point
	seed  int64
}

// openSchedule is the open mix's seeded Poisson arrival schedule over dur,
// and the cold points its groups send.
func openSchedule(seed int64, dur time.Duration, l layout, points []exp.Point) ([]arrival, []coldPoint) {
	hot := hotOrder(seed, points)
	r := streamRand(seed, -1)
	z := rand.NewZipf(r, zipfS, 1, uint64(l.points-1))
	var out []arrival
	var colds []coldPoint
	for t := time.Duration(0); ; {
		t += time.Duration(r.ExpFloat64() / openRate * float64(time.Second))
		if t >= dur {
			break
		}
		switch u := r.Float64(); {
		case u < openCold:
			g := len(colds)
			colds = append(colds, coldPoint{point: coldConfig, seed: seed*1_000_003 + int64(g) + 1})
			for j, k := 0, 2+r.Intn(2); j < k; j++ {
				d := t
				if j > 0 {
					d += time.Duration(r.Int63n(int64(coldSpread)))
				}
				out = append(out, arrival{due: d, req: l.cold(g)})
			}
		case u < openCold+openSweep:
			out = append(out, arrival{due: t, req: l.sweep(r.Intn(l.benches), false)})
		default:
			out = append(out, arrival{due: t, req: l.run(hot[z.Uint64()])})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].due < out[j].due })
	return out, colds
}

// phase is what one measured phase observed.
type phase struct {
	lat       []float64 // per-request latency, ms
	sweeps    []float64 // sweep request latency, s
	done      int       // requests completed (cold-grid: points)
	elapsed   time.Duration
	attempted int
	failed    int
	late      []float64 // open loop: how late each request was sent, ms
	rss       []float64 // peak resident set of each measured unit, MB
}

func (p *phase) merge(q phase) {
	p.lat = append(p.lat, q.lat...)
	p.sweeps = append(p.sweeps, q.sweeps...)
	p.late = append(p.late, q.late...)
	p.rss = append(p.rss, q.rss...)
	p.done += q.done
	p.elapsed += q.elapsed
	p.attempted += q.attempted
	p.failed += q.failed
}

// loadClient sends requests to the gateway over at most nproc connections.
type loadClient struct {
	hc    *http.Client
	base  string
	spans *spanLog // nil: untraced, no trace header
}

func newHTTPClient(conns int) *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true,
	}}
}

// post sends one request. In traced runs it sets a fresh X-Swarm-Trace
// identity and returns a finish func that records the client span.
func (c *loadClient) post(ctx context.Context, path string, body []byte) (*http.Response, func(), error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	finish := func() {}
	if c.spans != nil {
		trace := obs.NewTraceID()
		req.Header.Set(api.TraceHeader, fmt.Sprintf("%s-%016x", trace, 1))
		start := time.Now()
		finish = func() {
			c.spans.add(span{name: spanClient, trace: trace, parent: -1, start: start, end: time.Now()})
		}
	}
	resp, err := c.hc.Do(req)
	return resp, finish, err
}

// do sends one request and reports whether the answer matched its
// reference bytes.
func (c *loadClient) do(ctx context.Context, r *request) bool {
	resp, finish, err := c.post(ctx, r.path, r.body)
	if err != nil {
		return false
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	finish()
	return err == nil && resp.StatusCode == http.StatusOK && bytes.Equal(body, r.ref)
}

// sweepStream sends one NDJSON sweep and checks each line's SHA-256
// against want (header, records, trailer). It returns how many points
// were missing or wrong; a bad header or trailer fails every point.
func (c *loadClient) sweepStream(ctx context.Context, body []byte, want [][sha256.Size]byte) (failed int, err error) {
	points := len(want) - 2
	resp, finish, err := c.post(ctx, "/v1/sweep", body)
	if err != nil {
		return points, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return points, fmt.Errorf("sweep: HTTP %d", resp.StatusCode)
	}
	var got [][sha256.Size]byte
	br := bufio.NewReaderSize(resp.Body, 64<<10)
	for {
		line, rerr := br.ReadBytes('\n')
		if len(line) > 0 {
			got = append(got, sha256.Sum256(line))
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			return points, rerr
		}
	}
	finish()
	if len(got) != len(want) || got[0] != want[0] || got[len(got)-1] != want[len(want)-1] {
		return points, nil
	}
	for i := 1; i <= points; i++ {
		if got[i] != want[i] {
			failed++
		}
	}
	return failed, nil
}

// closedLoop runs one client per sequence until the deadline, each
// sending its next request only after the previous one completed.
func (c *loadClient) closedLoop(ctx context.Context, reqs []request, seqs [][]int, dur time.Duration) phase {
	start := time.Now()
	deadline := start.Add(dur)
	parts := make([]phase, len(seqs))
	var wg sync.WaitGroup
	for ci := range seqs {
		wg.Add(1)
		go func(p *phase, seq []int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				r := &reqs[seq[i%len(seq)]]
				t := time.Now()
				ok := c.do(ctx, r)
				p.record(r, time.Since(t), ok)
			}
		}(&parts[ci], seqs[ci])
	}
	wg.Wait()
	var out phase
	for _, p := range parts {
		out.merge(p)
	}
	out.elapsed = time.Since(start)
	return out
}

// openLoop sends the schedule on time regardless of completions: a
// generator releases each arrival when due, nproc workers (one per
// connection) send them in order, and each request is timed from its due
// time, so a stall also charges the requests queued behind it.
func (c *loadClient) openLoop(ctx context.Context, reqs []request, sched []arrival, conns int) phase {
	queue := make(chan int, len(sched)) // one slot per arrival: the generator never blocks
	t0 := time.Now().Add(10 * time.Millisecond)
	late := make([]float64, len(sched))
	parts := make([]phase, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(p *phase) {
			defer wg.Done()
			for i := range queue {
				r := &reqs[sched[i].req]
				ok := c.do(ctx, r)
				p.record(r, time.Since(t0.Add(sched[i].due)), ok)
			}
		}(&parts[w])
	}
	for i, a := range sched {
		due := t0.Add(a.due)
		waitUntil(due)
		late[i] = ms(time.Since(due))
		queue <- i
	}
	close(queue)
	wg.Wait()
	out := phase{late: late}
	for _, p := range parts {
		out.merge(p)
	}
	out.elapsed = time.Since(t0)
	return out
}

// spinWindow is how long before a due time the open loop stops sleeping and
// yields instead: a sleep on Linux can wake up to a millisecond late.
const spinWindow = 1200 * time.Microsecond

// waitUntil returns at t, or at once when t has passed.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// record adds one finished request.
func (p *phase) record(r *request, lat time.Duration, ok bool) {
	p.attempted++
	if !ok {
		p.failed++
		return
	}
	p.done++
	p.lat = append(p.lat, ms(lat))
	if r.kind == "sweep" {
		p.sweeps = append(p.sweeps, lat.Seconds())
	}
}
