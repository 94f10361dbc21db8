// Package front is the /v1 run, sweep and experiment front end that swarmd
// (internal/service) and swarmgate (internal/gate) both serve. It owns
// request decoding and validation, the seeds > 1 fan-out and merge, the
// bounded point fan-out, prefix-ordered NDJSON streaming with its
// completion trailer, the buffered encodings, the paper's experiments run
// point by point through exp.Runner, and the /metrics handler. A daemon
// plugs in one point executor — swarmd its cached, coalesced worker fleet,
// swarmgate its replica router — which answers with the point's canonical
// /v1/run body (see Body), and every response is assembled from those
// bodies: the bytes exp.ExportSet, the encoder the CLIs use, writes. So the
// two daemons' bytes are identical by construction.
//
// The handlers speak the typed wire contract in swarm/api: request bodies
// decode into api structs, every error response is the structured envelope
// written by api.WriteError, and NDJSON streams carry the api framing —
// header, records, completion trailer.
package front

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"slices"
	"strconv"
	"sync"

	"swarmhints/internal/bench"
	"swarmhints/internal/cliutil"
	"swarmhints/internal/exp"
	"swarmhints/internal/fault"
	"swarmhints/internal/metrics"
	"swarmhints/internal/obs"
	"swarmhints/internal/runner"
	"swarmhints/swarm"
	"swarmhints/swarm/api"
)

// Config is one fully specified simulation configuration: a harness point
// plus the workload scale and seed the experiment harness fixes per run.
type Config struct {
	Scale bench.Scale
	Seed  int64
	Point exp.Point
}

// Key is the canonical cache key: the (scale, seed) harness prefix followed
// by the experiment harness's own configuration key. Every result tier —
// the LRU, the in-flight coalescing map, and the persistent store — keys on
// exactly these bytes.
func (c Config) Key() string {
	return exp.ConfigKey(c.Scale, c.Seed, c.Point)
}

// Exec executes one configuration and returns its canonical /v1/run body
// plus a provenance string (how swarmd obtained the result, or which
// replica served it). The body must be exactly what Body encodes for the
// statistics exp.RunPoint would return for the configuration.
type Exec func(ctx context.Context, cfg Config) ([]byte, string, error)

// Front serves POST /v1/run, POST /v1/sweep and the /v1/experiments
// endpoints over one point executor. Everything but Name, Exec, Parallel,
// and SourceHeader is optional.
type Front struct {
	// Name prefixes the request spans ("<Name>.run", "<Name>.sweep",
	// "<Name>.experiment") and labels stream-abort logs.
	Name string
	// Exec executes one point.
	Exec Exec
	// Parallel bounds the points (or seed replicas) one request keeps in
	// flight.
	Parallel int
	// SourceHeader names the response header that carries a run's
	// provenance.
	SourceHeader string
	// Merged is the provenance of a seeds > 1 run; empty writes no header.
	Merged string
	// ParseHist observes request decode and validation time.
	ParseHist *obs.Histogram
	// BeforeRun runs once per valid run request, before it executes; an
	// error fails the request.
	BeforeRun func(context.Context) error
	// BeforeLine runs before each streamed record line is written; an
	// error truncates the stream.
	BeforeLine func(context.Context) error
	// OnSweep is called once per valid sweep request.
	OnSweep func()
	// OnExperiment is called with the experiment id once per experiment
	// request that succeeds.
	OnExperiment func(id string)
}

// Traced continues the trace the caller sent in the X-Swarm-Trace header
// (minting a fresh one for direct callers) and echoes the trace on the
// response, so a client can fetch /debug/traces/{id} for the request it
// just made. Callers must End the returned span.
func Traced(w http.ResponseWriter, r *http.Request, name string) (context.Context, *obs.Span) {
	ctx, sp := obs.ContinueSpan(r.Context(), r.Header.Get(api.TraceHeader), name)
	if sp != nil {
		w.Header().Set(api.TraceHeader, sp.Header())
	}
	return ctx, sp
}

// CheckCores rejects core counts the simulated machine cannot be built
// with: sim.Config.WithCores silently rounds up to the next 1-or-k²·c mesh,
// which would cache results under a mislabeled configuration key.
func CheckCores(cores []int) *api.Error {
	for _, c := range cores {
		if c < 1 {
			return api.Errorf(api.CodeBadCores, "cores must be >= 1, got %d", c)
		}
		if got := swarm.ScaledConfig().WithCores(c).Cores(); got != c {
			return api.Errorf(api.CodeBadCores, "cores must be 1 or fill a square mesh (nearest is %d), got %d", got, c)
		}
	}
	return nil
}

// ParseHarness resolves the shared (scale, seed) harness fields.
func ParseHarness(scaleName string, seed *int64) (bench.Scale, int64, *api.Error) {
	if scaleName == "" {
		scaleName = "small"
	}
	scale, err := cliutil.ParseScale(scaleName)
	if err != nil {
		return 0, 0, api.Errorf(api.CodeUnknownScale, "%v", err)
	}
	s := int64(7)
	if seed != nil {
		s = *seed
	}
	return scale, s, nil
}

// ParseRun resolves one run request into a fully specified configuration.
func ParseRun(req api.RunRequest) (Config, *api.Error) {
	scale, seed, aerr := ParseHarness(req.Scale, req.Seed)
	if aerr != nil {
		return Config{}, aerr
	}
	if _, ok := bench.Registry[req.Bench]; !ok {
		return Config{}, api.Errorf(api.CodeUnknownBench, "unknown benchmark %q", req.Bench)
	}
	kind, err := cliutil.ParseSched(req.Sched)
	if err != nil {
		return Config{}, api.Errorf(api.CodeUnknownSched, "%v", err)
	}
	if aerr := CheckCores([]int{req.Cores}); aerr != nil {
		return Config{}, aerr
	}
	if req.Seeds < 0 || req.Seeds > api.MaxSeeds {
		return Config{}, api.Errorf(api.CodeBadRequest, "seeds must be in [0, %d], got %d", api.MaxSeeds, req.Seeds)
	}
	return Config{Scale: scale, Seed: seed, Point: exp.Point{
		Name: req.Bench, Kind: kind, Cores: req.Cores, Profile: req.Profile,
	}}, nil
}

// ParseSweep resolves a sweep request into its deduplicated, canonically
// ordered configuration points plus the harness fields.
func ParseSweep(req api.SweepRequest) ([]exp.Point, bench.Scale, int64, *api.Error) {
	scale, seed, aerr := ParseHarness(req.Scale, req.Seed)
	if aerr != nil {
		return nil, 0, 0, aerr
	}
	if len(req.Benches) == 0 || len(req.Scheds) == 0 || len(req.Cores) == 0 {
		return nil, 0, 0, api.Errorf(api.CodeBadRequest, "benches, scheds, and cores must each list at least one value")
	}
	for _, b := range req.Benches {
		if _, ok := bench.Registry[b]; !ok {
			return nil, 0, 0, api.Errorf(api.CodeUnknownBench, "unknown benchmark %q", b)
		}
	}
	var kinds []swarm.SchedKind
	for _, sc := range req.Scheds {
		k, err := cliutil.ParseSched(sc)
		if err != nil {
			return nil, 0, 0, api.Errorf(api.CodeUnknownSched, "%v", err)
		}
		kinds = append(kinds, k)
	}
	if aerr := CheckCores(req.Cores); aerr != nil {
		return nil, 0, 0, aerr
	}
	points := exp.DedupSorted(exp.Grid(req.Benches, kinds, req.Cores, req.Profile))
	return points, scale, seed, nil
}

// Run serves POST /v1/run: one configuration, answered with a
// single-record result set encoded exactly as the CLI export encodes it.
// seeds > 1 fans the configuration out as seed replicas (see runSeeds) and
// answers with the merged record.
func (f *Front) Run(w http.ResponseWriter, r *http.Request) {
	ctx, sp := Traced(w, r, f.Name+".run")
	defer sp.End()
	pt := obs.StartTimer()
	var req api.RunRequest
	var cfg Config
	aerr := api.DecodeRequest(w, r, &req)
	if aerr == nil {
		cfg, aerr = ParseRun(req)
	}
	pt.Observe(f.ParseHist)
	if aerr != nil {
		api.WriteError(w, aerr)
		return
	}
	sp.SetAttr("key", cfg.Key())
	if f.BeforeRun != nil {
		if err := f.BeforeRun(ctx); err != nil {
			api.WriteError(w, RunError(err))
			return
		}
	}
	var body []byte
	var src string
	var err error
	if req.Seeds > 1 {
		body, err = f.runSeeds(ctx, cfg, req.Seeds)
		src = f.Merged
	} else {
		body, src, err = f.Exec(ctx, cfg)
	}
	if err != nil {
		api.WriteError(w, RunError(err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	// Sized, so the gateway reads the body into one buffer of its size.
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	if src != "" {
		w.Header().Set(f.SourceHeader, src)
		sp.SetAttr("source", src)
	}
	_, _ = w.Write(body)
}

// runSeeds fans cfg out as its seed replicas, each executed under its own
// per-seed configuration so it is cached and routed like any point, decodes
// each replica's body once, and encodes the body of their merged snapshot.
func (f *Front) runSeeds(ctx context.Context, cfg Config, seeds int) ([]byte, error) {
	replicas := exp.ReplicaSeeds(cfg.Seed, seeds)
	cfgs := make([]Config, len(replicas))
	for r, s := range replicas {
		cfgs[r] = Config{Scale: cfg.Scale, Seed: s, Point: cfg.Point}
	}
	snaps := make([]*metrics.Snapshot, len(cfgs))
	fan := *f
	fan.Exec = func(ctx context.Context, c Config) ([]byte, string, error) {
		// Replica seeds are distinct (DeriveSeed is one-to-one in the
		// replica index), so a configuration's seed names its replica.
		r := slices.Index(replicas, c.Seed)
		body, src, err := f.Exec(ctx, c)
		if err == nil {
			snaps[r], err = DecodeBody(c, body)
		}
		if err != nil {
			return nil, "", fmt.Errorf("seed replica %d (seed %d): %w", r, c.Seed, err)
		}
		return body, src, nil
	}
	if _, err := fan.fanOut(ctx, cfgs, nil); err != nil {
		return nil, err
	}
	merged, err := metrics.MergeSnapshots(snaps)
	if err != nil {
		return nil, err
	}
	return Body(cfg, merged)
}

// Experiments serves GET /v1/experiments: the paper's experiment registry,
// in paper order. It needs no executor, so it answers even when every
// point executor behind it is down.
func (f *Front) Experiments(w http.ResponseWriter, _ *http.Request) {
	list := make([]api.ExperimentInfo, 0, len(exp.Registry))
	for _, e := range exp.Registry {
		list = append(list, api.ExperimentInfo{ID: e.ID, Title: e.Title})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(list)
}

// Experiment serves POST /v1/experiments/{id}: regenerate one paper table
// or figure. The experiment runs on an exp.Runner whose every simulation is
// a point executed through Exec — from swarmd's shared cache and worker
// fleet, or on each point's home replica behind swarmgate — so repeated
// figures are answered mostly from cache. format "text" returns the
// human-readable tables; the machine-readable formats are assembled from
// the bodies of the points the experiment ran, as a sweep's are, and equal
// the export the CLI emits.
func (f *Front) Experiment(w http.ResponseWriter, r *http.Request) {
	ctx, sp := Traced(w, r, f.Name+".experiment")
	defer sp.End()
	pt := obs.StartTimer()
	e, err := exp.Find(r.PathValue("id"))
	if err != nil {
		pt.Observe(f.ParseHist)
		api.WriteError(w, api.Errorf(api.CodeUnknownExperiment, "%v", err))
		return
	}
	sp.SetAttr("experiment", e.ID)
	var req api.ExperimentRequest
	if aerr := api.DecodeRequest(w, r, &req); aerr != nil {
		pt.Observe(f.ParseHist)
		api.WriteError(w, aerr)
		return
	}
	scale, seed, aerr := ParseHarness(req.Scale, req.Seed)
	pt.Observe(f.ParseHist)
	if aerr != nil {
		api.WriteError(w, aerr)
		return
	}
	format := req.Format
	if format == "" {
		format = "json"
	}
	if !slices.Contains(api.ExperimentFormats, format) {
		// Reject up front: an experiment at full scale is minutes of work.
		api.WriteError(w, api.UnknownFormat(format, api.ExperimentFormats))
		return
	}
	opt := exp.DefaultOptions(scale)
	opt.Seed = seed
	opt.Parallel = f.Parallel
	// The points the experiment ran, and their bodies by Config.Key.
	var mu sync.Mutex
	var points []exp.Point
	bodies := make(map[string][]byte)
	opt.Exec = func(ctx context.Context, p exp.Point) (*swarm.Stats, error) {
		cfg := Config{Scale: scale, Seed: seed, Point: p}
		body, _, err := f.Exec(ctx, cfg)
		if err != nil {
			return nil, err
		}
		sn, err := DecodeBody(cfg, body)
		if err != nil {
			return nil, err
		}
		mu.Lock()
		points = append(points, p)
		bodies[cfg.Key()] = body
		mu.Unlock()
		return swarm.StatsFromSnapshot(sn), nil
	}
	if len(req.Cores) > 0 {
		if aerr := CheckCores(req.Cores); aerr != nil {
			api.WriteError(w, aerr)
			return
		}
		opt.Cores = req.Cores
	}
	er := exp.NewRunner(opt)

	var tables bytes.Buffer
	if err := e.Run(ctx, er, &tables); err != nil {
		api.WriteError(w, RunError(err))
		return
	}
	if f.OnExperiment != nil {
		f.OnExperiment(e.ID)
	}
	if format == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write(tables.Bytes())
		return
	}
	cfgs := configs(exp.DedupSorted(points), scale, seed)
	ordered := make([][]byte, len(cfgs))
	for i, cfg := range cfgs {
		ordered[i] = bodies[cfg.Key()]
	}
	if err := writeBuffered(w, cfgs, ordered, format); err != nil {
		api.WriteError(w, RunError(err))
	}
}

// Sweep serves POST /v1/sweep: the grid's points fan out across the
// executor and, for NDJSON, stream in canonical configuration order —
// record i is written as soon as records 0..i have all completed, so output
// order is deterministic for any parallelism even though completion order
// is not.
func (f *Front) Sweep(w http.ResponseWriter, r *http.Request) {
	ctx, sp := Traced(w, r, f.Name+".sweep")
	defer sp.End()
	pt := obs.StartTimer()
	var req api.SweepRequest
	var points []exp.Point
	var scale bench.Scale
	var seed int64
	aerr := api.DecodeRequest(w, r, &req)
	if aerr == nil {
		points, scale, seed, aerr = ParseSweep(req)
	}
	pt.Observe(f.ParseHist)
	if aerr != nil {
		api.WriteError(w, aerr)
		return
	}
	sp.SetAttrInt("points", int64(len(points)))
	if f.OnSweep != nil {
		f.OnSweep()
	}
	format := req.Format
	if format == "" {
		format = "ndjson"
	}
	cfgs := configs(points, scale, seed)
	switch format {
	case "ndjson":
		f.stream(ctx, w, cfgs)
	case "json", "csv":
		bodies, err := f.fanOut(ctx, cfgs, nil)
		if err == nil {
			err = writeBuffered(w, cfgs, bodies, format)
		}
		if err != nil {
			api.WriteError(w, RunError(err))
		}
	default:
		api.WriteError(w, api.UnknownFormat(format, api.SweepFormats))
	}
}

// configs places points under the (scale, seed) harness.
func configs(points []exp.Point, scale bench.Scale, seed int64) []Config {
	cfgs := make([]Config, len(points))
	for i, p := range points {
		cfgs[i] = Config{Scale: scale, Seed: seed, Point: p}
	}
	return cfgs
}

// writeBuffered writes completed points in a buffered format, assembled
// from their bodies: json splices the bodies into one set, ndjson writes
// the lines a stream of the points writes, and csv decodes each body once
// for its scalar columns.
func writeBuffered(w http.ResponseWriter, cfgs []Config, bodies [][]byte, format string) error {
	var b []byte
	var contentType string
	var err error
	switch format {
	case "json":
		contentType = "application/json"
		b, err = joinBodies(cfgs, bodies)
	case "ndjson":
		contentType = "application/x-ndjson"
		b, err = streamHeader(len(cfgs))
		for i := 0; err == nil && i < len(cfgs); i++ {
			var line []byte
			line, err = recordLine(cfgs[i], bodies[i])
			b = append(b, line...)
		}
		if err == nil {
			var trailer []byte
			trailer, err = api.EncodeTrailer(len(cfgs))
			b = append(b, trailer...)
		}
	case "csv":
		contentType = "text/csv"
		rs := metrics.NewResultSet(exp.ExportFields...)
		for i, body := range bodies {
			sn, err := DecodeBody(cfgs[i], body)
			if err != nil {
				return err
			}
			rs.Append(exp.PointLabels(cfgs[i].Point, cfgs[i].Scale, cfgs[i].Seed), sn)
		}
		var buf bytes.Buffer
		err = rs.WriteCSV(&buf)
		b = buf.Bytes()
	}
	if err != nil {
		return err
	}
	w.Header().Set("Content-Type", contentType)
	_, _ = w.Write(b)
	return nil
}

// streamHeader encodes the NDJSON header line of points records.
func streamHeader(points int) ([]byte, error) {
	return api.EncodeHeader(api.StreamHeader{Schema: metrics.SchemaVersion, Fields: exp.ExportFields, Points: points})
}

// fanOut executes every configuration through the executor on a
// runner.Sweep pool of Parallel workers and returns the bodies in
// configuration order. each, when non-nil, sees every successful point as
// it completes, serialized. The first failure — an execution error or an
// error from each — cancels the rest of the grid, since the request fails
// either way, and is the error reported: the cancellation ripples it causes
// in other points never displace it.
func (f *Front) fanOut(ctx context.Context, cfgs []Config, each func(i int, body []byte) error) ([][]byte, error) {
	if len(cfgs) == 0 {
		return nil, nil
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	// Each job writes only its own slot, before the runner hands its
	// result to OnResult.
	bodies := make([][]byte, len(cfgs))
	jobs := make([]runner.Job, len(cfgs))
	for i, cfg := range cfgs {
		jobs[i] = runner.Job{
			Name: cfg.Point.Key(),
			Run: func(int64) (*swarm.Stats, error) {
				body, _, err := f.Exec(ctx, cfg)
				bodies[i] = body
				return nil, err
			},
		}
	}
	var failed error
	results := runner.Sweep(ctx, jobs, runner.Options{
		Parallel: f.Parallel,
		Seed:     cfgs[0].Seed,
		// OnResult runs serialized under the runner's lock.
		OnResult: func(res runner.Result) {
			if failed != nil {
				return
			}
			if failed = res.Err; failed == nil && each != nil {
				failed = each(res.Index, bodies[res.Index])
			}
			if failed != nil {
				cancel()
			}
		},
	})
	if failed == nil {
		// Jobs canceled before they started never reach OnResult: the
		// caller's own context died.
		failed = runner.FirstErr(results)
	}
	if failed != nil {
		return nil, failed
	}
	return bodies, nil
}

// stream emits the sweep as NDJSON in the api framing: a header line
// carrying the schema and label fields, one compact record per line in
// canonical configuration order, and — only when every point streamed —
// the completion trailer. An NDJSON stream cannot signal an error
// retroactively, so a failed point truncates it instead. Reassembling the
// record lines into a ResultSet and encoding it as indented JSON
// reproduces the buffered "json" response byte for byte.
func (f *Front) stream(ctx context.Context, w http.ResponseWriter, cfgs []Config) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	header, err := streamHeader(len(cfgs))
	if err != nil {
		api.WriteError(w, api.Errorf(api.CodeInternal, "%v", err))
		return
	}
	flush := func() {}
	if fl, ok := w.(http.Flusher); ok {
		flush = fl.Flush
	}
	written, err := w.Write(header)
	if err != nil {
		return
	}
	flush()

	next := 0 // next point index to emit
	lines := make(map[int][]byte, len(cfgs))
	_, err = f.fanOut(ctx, cfgs, func(i int, body []byte) error {
		line, err := recordLine(cfgs[i], body)
		if err != nil {
			return err
		}
		lines[i] = line
		for next < len(cfgs) && lines[next] != nil {
			if f.BeforeLine != nil {
				if err := f.BeforeLine(ctx); err != nil {
					return err
				}
			}
			n, err := w.Write(lines[next])
			written += n
			if err != nil {
				return err
			}
			delete(lines, next)
			next++
		}
		flush()
		return nil
	})
	if err != nil {
		slog.Error("sweep stream aborted",
			"component", f.Name,
			"trace", obs.Trace(ctx),
			"point", next,
			"points", len(cfgs),
			"bytes", written,
			"err", err)
		return
	}
	if trailer, err := api.EncodeTrailer(len(cfgs)); err == nil {
		_, _ = w.Write(trailer)
		flush()
	}
}

// Metrics serves the families render returns in the Prometheus text
// exposition format: the /metrics endpoint of swarmd and swarmgate.
func Metrics(render func() []metrics.PromMetric) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = metrics.WriteProm(w, render())
	}
}

// RunError maps an execution failure to its wire error. A failure that
// already is a wire error — a replica's answer relayed by the gateway —
// passes through unchanged. Cancellations and deadline hits mean this
// instance is draining or gave up — retryable against another replica —
// while everything else is a deterministic failure a retry would
// reproduce. Injected faults are the exception to "internal is final": the
// failure is a property of this instance's injection plan, not the
// configuration, so they stay retryable and the gateway routes around
// them.
func RunError(err error) *api.Error {
	var ae *api.Error
	if errors.As(err, &ae) {
		return ae
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return api.Errorf(api.CodeShuttingDown, "%v", err)
	}
	e := api.Errorf(api.CodeInternal, "%v", err)
	if errors.Is(err, fault.ErrInjected) {
		e.Retryable = true
	}
	return e
}
