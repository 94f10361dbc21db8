package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"swarmhints/internal/bench"
	"swarmhints/internal/cliutil"
	"swarmhints/internal/exp"
	"swarmhints/internal/store"
	"swarmhints/swarm"
	"swarmhints/swarm/api"
)

// setupRepeats is how many set-ups a run times, about half before and half
// after the measured phase; setup_s is their median.
const setupRepeats = 15

// env is the state one benchmark run shares across its phases.
type env struct {
	cfg   config
	nproc int
	tmp   string // scratch root; every fleet gets its own store directory
	dirs  int
	hc    *http.Client
	grid  *grid
	w     workload

	reqs     []request // warm/open request table (see layout)
	lay      layout
	seedRuns [][]*swarm.Stats // per-seed stats of the seeds:4 configurations, by hot rank
	colds    []coldPoint
	sched    []arrival
	sweepRq  []byte              // cold-grid sweep body
	sweepSum [][sha256.Size]byte // cold-grid stream line digests

	setups []float64 // set-up durations, s
	layers *layerDelta
}

// workload is one named traffic mix.
type workload struct {
	// prepare builds the references and request schedule (not timed).
	prepare func(ctx context.Context, e *env) error
	// fill pre-populates a fresh store directory before a fleet starts.
	fill func(e *env, dir string) error
	// measure runs one measured phase of about dur, recording spans when
	// spans is non-nil.
	measure func(ctx context.Context, e *env, dur time.Duration, spans *spanLog) (phase, error)
	// primary picks the end-to-end number the trace overhead compares.
	primary func(phase) float64
	// procs is GOMAXPROCS after preparation (0: nproc).
	procs int
}

var workloads = map[string]workload{
	// A researcher regenerating a figure: one cold 81-point NDJSON sweep
	// per fresh fleet. Engine and validation dominate; the store only writes.
	"cold-grid": {
		prepare: prepareColdGrid,
		fill:    func(*env, string) error { return nil },
		measure: measureColdGrid,
		primary: func(p phase) float64 { return median(p.sweeps) },
	},
	// Callers waiting on cached results: a closed-loop Zipf mix over the
	// stored grid. The engine never runs; the store only reads. The whole
	// process runs on one P: a request hops client -> gateway -> replica
	// and back, and on two Ps each hop can wake an idle virtual CPU, whose
	// wake-up the hypervisor delays by however busy the host is.
	"warm-mix": {
		prepare: prepareWarm,
		fill:    fillGrid,
		measure: measureWarm,
		primary: func(p phase) float64 { return quantile(p.lat, 0.5) },
		procs:   1,
	},
	// Independent users sharing the fleet: seeded Poisson arrivals, mostly
	// warm hits plus cold tiny points sent 2-3 times close together.
	"open-mix": {
		prepare: prepareOpen,
		fill:    fillGrid,
		measure: measureOpen,
		primary: func(p phase) float64 { return quantile(p.lat, 0.5) },
	},
}

// setup starts a fleet on a fresh, pre-populated store directory and times
// the part the program owns: opening the stores, starting the replicas and
// the gateway, and the connection warm-up. Writing the records is the
// benchmark's preparation and is not timed: it is one fsync per record,
// whose cost the traced run reports as store.write_ms and store.fsync_ms,
// and whose run-to-run swings on a shared disk would otherwise drown
// set-up time. Store directories stay until the run ends, so deleting one
// never lands inside a later set-up.
func (e *env) setup(ctx context.Context, balancerSeed int64, spans *spanLog) (*fleet, error) {
	e.dirs++
	dir := filepath.Join(e.tmp, fmt.Sprintf("store-%d", e.dirs))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := e.w.fill(e, dir); err != nil {
		return nil, fmt.Errorf("filling store: %w", err)
	}
	start := time.Now()
	f, err := startFleet(dir, balancerSeed, spans)
	if err != nil {
		return nil, err
	}
	if err := f.warmUp(ctx, e.hc, e.nproc); err != nil {
		f.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	e.setups = append(e.setups, time.Since(start).Seconds())
	return f, nil
}

// computeGrid fills the run's reference grid.
func (e *env) computeGrid(ctx context.Context) error {
	e.grid = newGrid(e.cfg.scale, e.cfg.seed)
	return e.grid.compute(ctx, e.nproc)
}

// The cold grid is a figure: the sweep names no seed, so the fleet uses the
// harness default, and its expected stream is committed as per-line
// digests. Other scales (the self-tests) compute their reference.
const figureSeed = 7

//go:embed testdata/cold-grid.sha256
var coldGridDigests string

func prepareColdGrid(ctx context.Context, e *env) error {
	body, err := json.Marshal(api.SweepRequest{
		Benches: bench.Names(), Scheds: gridScheds, Cores: gridCores, Scale: e.cfg.scale.String(),
	})
	if err != nil {
		return err
	}
	e.sweepRq = body
	e.grid = newGrid(e.cfg.scale, figureSeed)
	if e.cfg.scale == bench.Small {
		e.sweepSum, err = parseDigests(coldGridDigests)
		return err
	}
	if err := e.grid.compute(ctx, e.nproc); err != nil {
		return err
	}
	e.sweepSum, err = e.grid.streamDigests()
	return err
}

// parseDigests reads one hex SHA-256 per line.
func parseDigests(text string) ([][sha256.Size]byte, error) {
	var out [][sha256.Size]byte
	for _, line := range strings.Fields(text) {
		var d [sha256.Size]byte
		if n, err := hex.Decode(d[:], []byte(line)); err != nil || n != len(d) {
			return nil, fmt.Errorf("bad digest line %q", line)
		}
		out = append(out, d)
	}
	return out, nil
}

func measureColdGrid(ctx context.Context, e *env, dur time.Duration, spans *spanLog) (phase, error) {
	// Sweeps run back to back while another one is expected to end within
	// half a sweep of dur.
	var out phase
	start := time.Now()
	for n := 1; ; n++ {
		// Each sweep routes under its own balancer seed, so a run averages
		// over routing outcomes instead of repeating one.
		f, err := e.setup(ctx, e.cfg.seed*1_000_003+int64(n), spans)
		if err != nil {
			return out, err
		}
		lc := &loadClient{hc: e.hc, base: f.url, spans: spans}
		before := f.snapshot()
		if err := startRSS(); err != nil {
			f.close()
			return out, err
		}
		t := time.Now()
		failed, err := lc.sweepStream(ctx, e.sweepRq, e.sweepSum)
		took := time.Since(t)
		rss, rerr := peakRSSMB()
		e.addLayers(before, f.snapshot())
		f.close()
		if rerr != nil {
			return out, rerr
		}
		points := len(e.sweepSum) - 2
		p := phase{elapsed: took, attempted: points, failed: failed, rss: []float64{rss}}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: cold sweep:", err)
			p.failed = points
		}
		if p.failed == 0 {
			// One request per sweep: its latency is the sweep's.
			p.done = points
			p.sweeps = []float64{took.Seconds()}
			p.lat = []float64{ms(took)}
		}
		out.merge(p)
		if el := time.Since(start); el+el/time.Duration(2*n) > dur {
			return out, nil
		}
	}
}

// buildTable computes the warm request table: a run per grid point, a
// sweep per benchmark in both formats, and the seeds:4 runs over the
// hottest configurations, whose per-seed results are computed too.
func (e *env) buildTable(ctx context.Context) error {
	if err := e.computeGrid(ctx); err != nil {
		return err
	}
	g := e.grid
	e.lay = layout{points: len(g.points), benches: len(bench.Names())}
	scale := g.scale.String()
	seed := g.seed
	e.reqs = make([]request, e.lay.cold(0))
	for i, p := range g.points {
		body, err := json.Marshal(pointBody(p, scale, seed, 0))
		if err != nil {
			return err
		}
		ref, err := runRef(g.scale, seed, p, g.stats[p.Key()])
		if err != nil {
			return err
		}
		e.reqs[e.lay.run(i)] = request{kind: "run", path: "/v1/run", body: body, ref: ref}
	}
	for b, name := range bench.Names() {
		var pts []exp.Point
		for _, p := range g.points {
			if p.Name == name {
				pts = append(pts, p)
			}
		}
		for _, format := range []string{"ndjson", "json"} {
			body, err := json.Marshal(api.SweepRequest{
				Benches: []string{name}, Scheds: gridScheds, Cores: gridCores,
				Scale: scale, Seed: &seed, Format: format,
			})
			if err != nil {
				return err
			}
			ref, _, err := g.sweepRef(pts, format)
			if err != nil {
				return err
			}
			e.reqs[e.lay.sweep(b, format == "json")] = request{kind: "sweep", path: "/v1/sweep", body: body, ref: ref}
		}
	}
	// seeds:4 runs: their per-seed points are extra simulations.
	hot := hotOrder(seed, g.points)
	seeds := exp.ReplicaSeeds(seed, seedsPerRun)
	per, err := computeEach(ctx, e.nproc, seedCfgs*seedsPerRun, func(i int) (*swarm.Stats, error) {
		return exp.RunPoint(g.points[hot[i/seedsPerRun]], g.scale, seeds[i%seedsPerRun], true)
	})
	if err != nil {
		return err
	}
	e.seedRuns = make([][]*swarm.Stats, seedCfgs)
	for k := range e.seedRuns {
		p := g.points[hot[k]]
		runs := per[k*seedsPerRun : (k+1)*seedsPerRun]
		merged, err := swarm.MergeStats(runs)
		if err != nil {
			return err
		}
		body, err := json.Marshal(pointBody(p, scale, seed, seedsPerRun))
		if err != nil {
			return err
		}
		ref, err := runRef(g.scale, seed, p, merged)
		if err != nil {
			return err
		}
		e.seedRuns[k] = runs
		e.reqs[e.lay.seeds(k)] = request{kind: "seeds", path: "/v1/run", body: body, ref: ref}
	}
	return nil
}

func pointBody(p exp.Point, scale string, seed int64, seeds int) api.RunRequest {
	rr := api.Point{Bench: p.Name, Sched: cliutil.SchedFlag(p.Kind), Cores: p.Cores, Profile: p.Profile}.Run(scale, seed)
	rr.Seeds = seeds
	return rr
}

// fillGrid writes the grid and the seeds:4 per-seed results into the
// store directory through the store's own write path.
func fillGrid(e *env, dir string) error {
	st, err := store.Open(dir, 0)
	if err != nil {
		return err
	}
	g := e.grid
	for _, p := range g.points {
		if err := st.PutStats(exp.ConfigKey(g.scale, g.seed, p), g.stats[p.Key()]); err != nil {
			return err
		}
	}
	hot := hotOrder(g.seed, g.points)
	for k, per := range e.seedRuns {
		p := g.points[hot[k]]
		for r, s := range exp.ReplicaSeeds(g.seed, seedsPerRun) {
			if err := st.PutStats(exp.ConfigKey(g.scale, s, p), per[r]); err != nil {
				return err
			}
		}
	}
	return nil
}

func prepareWarm(ctx context.Context, e *env) error { return e.buildTable(ctx) }

func measureWarm(ctx context.Context, e *env, dur time.Duration, spans *spanLog) (phase, error) {
	f, err := e.setup(ctx, e.cfg.seed, spans)
	if err != nil {
		return phase{}, err
	}
	defer f.close()
	// Each sequence holds more requests than a client can send in dur;
	// a client that runs out starts its sequence again.
	n := int(dur/time.Millisecond)*4 + 1000
	seqs := make([][]int, warmClients)
	for c := range seqs {
		seqs[c] = warmSequence(e.cfg.seed, c, n, e.lay, e.grid.points)
	}
	lc := &loadClient{hc: e.hc, base: f.url, spans: spans}
	before := f.snapshot()
	rw, err := startRSSWindows()
	if err != nil {
		return phase{}, err
	}
	p := lc.closedLoop(ctx, e.reqs, seqs, dur)
	p.rss = rw.finish()
	after := f.snapshot()
	e.addLayers(before, after)
	if runs := after.runs - before.runs; runs != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: warm-mix ran the engine %d times\n", runs)
		p.failed += int(runs)
	}
	return p, nil
}

func prepareOpen(ctx context.Context, e *env) error {
	if err := e.buildTable(ctx); err != nil {
		return err
	}
	dur := time.Duration(e.cfg.seconds) * time.Second
	if e.cfg.trace {
		dur /= 2 // each of the traced run's two phases plays the schedule
	}
	e.sched, e.colds = openSchedule(e.cfg.seed, dur, e.lay, e.grid.points)
	sts, err := computeEach(ctx, e.nproc, len(e.colds), func(i int) (*swarm.Stats, error) {
		return exp.RunPoint(e.colds[i].point, bench.Tiny, e.colds[i].seed, true)
	})
	if err != nil {
		return err
	}
	for i, c := range e.colds {
		body, err := json.Marshal(pointBody(c.point, bench.Tiny.String(), c.seed, 0))
		if err != nil {
			return err
		}
		ref, err := runRef(bench.Tiny, c.seed, c.point, sts[i])
		if err != nil {
			return err
		}
		e.reqs = append(e.reqs, request{kind: "cold", path: "/v1/run", body: body, ref: ref})
	}
	return nil
}

func measureOpen(ctx context.Context, e *env, dur time.Duration, spans *spanLog) (phase, error) {
	f, err := e.setup(ctx, e.cfg.seed, spans)
	if err != nil {
		return phase{}, err
	}
	defer f.close()
	lc := &loadClient{hc: e.hc, base: f.url, spans: spans}
	before := f.snapshot()
	rw, err := startRSSWindows()
	if err != nil {
		return phase{}, err
	}
	p := lc.openLoop(ctx, e.reqs, e.sched, e.nproc)
	p.rss = rw.finish()
	e.addLayers(before, f.snapshot())
	return p, nil
}
