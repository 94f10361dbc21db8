package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"

	"swarmhints/internal/exp"
	"swarmhints/internal/fault"
	"swarmhints/internal/front"
	"swarmhints/internal/obs"
	"swarmhints/swarm"
	"swarmhints/swarm/api"
)

// The work-bearing run and sweep endpoints are the shared front end
// (internal/front) over this service's cached, coalesced worker fleet, and
// /metrics is front.Metrics over PromMetrics; the experiment endpoints and
// health are swarmd's own.

// Handler returns the service's HTTP API. The work-bearing endpoints pass
// through the admission bound (admit); health, metrics, and the registry
// listing never shed — an overloaded replica must still answer its prober.
func (s *Service) Handler() http.Handler {
	fe := &front.Front{
		Name:         "swarmd",
		Exec:         s.exec,
		Parallel:     s.opt.Workers,
		SourceHeader: "X-Swarmd-Source",
		Merged:       string(SourceMerged),
		ParseHist:    s.histParse,
		BeforeRun:    s.runFaults,
		BeforeLine:   s.stallFault,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.admit(fe.Run))
	mux.HandleFunc("POST /v1/sweep", s.admit(fe.Sweep))
	mux.HandleFunc("GET /v1/experiments", s.handleExperimentList)
	mux.HandleFunc("POST /v1/experiments/{id}", s.admit(s.handleExperiment))
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", front.Metrics(s.PromMetrics))
	obs.Default.Mount(mux)
	if s.opt.FaultAdmin {
		mux.Handle("/v1/faults", fault.AdminHandler(fault.Default))
	}
	return mux
}

// exec is the front end's point executor: the cached, coalesced,
// store-tiered fleet path, with the tier that answered as provenance.
func (s *Service) exec(ctx context.Context, cfg Config) ([]byte, string, error) {
	body, src, err := s.Body(ctx, cfg)
	return body, string(src), err
}

// runFaults fires the per-run-request chaos hooks: swarmd.run.slow delays
// the request, swarmd.run.err fails it with an injected retryable 500.
func (s *Service) runFaults(ctx context.Context) error {
	if f, ok := s.siteSlow.Fire(); ok {
		if err := f.Sleep(ctx); err != nil {
			return err
		}
	}
	if f, ok := s.siteErr.Fire(); ok && f.Err != nil {
		return f.Err
	}
	return nil
}

// stallFault fires before every streamed sweep line: swarmd.stream.stall
// freezes the stream mid-line (Latency) or kills it without the trailer
// (Fail) — the truncation clients must detect and the gateway must absorb.
func (s *Service) stallFault(ctx context.Context) error {
	f, ok := s.siteStall.Fire()
	if !ok {
		return nil
	}
	if err := f.Sleep(ctx); err != nil {
		return err
	}
	return f.Err
}

// admit is the bounded-admission gate in front of every work-bearing
// endpoint. A request beyond Options.MaxPending in-progress peers — or one
// the swarmd.overload fault site rejects — is shed immediately with the
// retryable 429 overloaded envelope (Retry-After: 1), so a burst degrades
// into fast, routable rejections instead of an unbounded queue. The worker
// semaphore still bounds execution; this bounds waiting.
func (s *Service) admit(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		n := s.pending.Add(1)
		defer s.pending.Add(-1)
		if f, ok := s.siteOverload.Fire(); ok {
			_ = f.Sleep(r.Context())
			s.shed.Add(1)
			api.WriteError(w, api.Errorf(api.CodeOverloaded, "server overloaded (injected)"))
			return
		}
		if max := s.opt.MaxPending; max > 0 && n > int64(max) {
			s.shed.Add(1)
			api.WriteError(w, api.Errorf(api.CodeOverloaded,
				"server at admission bound (%d requests in progress)", max))
			return
		}
		h(w, r)
	}
}

// handleExperimentList serves GET /v1/experiments: the paper's experiment
// registry, in paper order.
func (s *Service) handleExperimentList(w http.ResponseWriter, _ *http.Request) {
	list := make([]api.ExperimentInfo, 0, len(exp.Registry))
	for _, e := range exp.Registry {
		list = append(list, api.ExperimentInfo{ID: e.ID, Title: e.Title})
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(list)
}

// handleExperiment serves POST /v1/experiments/{id}: regenerate one paper
// table or figure as a service. Simulation points execute through the
// shared cache and worker fleet, so repeated figures are answered mostly
// from cache. format "text" returns the human-readable tables; the
// machine-readable formats return the same export the CLI emits.
func (s *Service) handleExperiment(w http.ResponseWriter, r *http.Request) {
	ctx, sp := front.Traced(w, r, "swarmd.experiment")
	defer sp.End()
	pt := obs.StartTimer()
	e, err := exp.Find(r.PathValue("id"))
	if err != nil {
		pt.Observe(s.histParse)
		api.WriteError(w, api.Errorf(api.CodeUnknownExperiment, "%v", err))
		return
	}
	sp.SetAttr("experiment", e.ID)
	var req api.ExperimentRequest
	if aerr := api.DecodeRequest(w, r, &req); aerr != nil {
		pt.Observe(s.histParse)
		api.WriteError(w, aerr)
		return
	}
	scale, seed, aerr := front.ParseHarness(req.Scale, req.Seed)
	pt.Observe(s.histParse)
	if aerr != nil {
		api.WriteError(w, aerr)
		return
	}
	format := req.Format
	if format == "" {
		format = "json"
	}
	switch format {
	case "json", "csv", "ndjson", "text":
	default:
		// Reject up front: an experiment at full scale is minutes of work.
		api.WriteError(w, api.UnknownFormat(format, api.ExperimentFormats))
		return
	}
	opt := exp.DefaultOptions(scale)
	opt.Seed = seed
	opt.Parallel = s.opt.Workers
	opt.Validate = s.opt.Validate
	opt.Exec = func(ctx context.Context, p exp.Point) (*swarm.Stats, error) {
		st, _, err := s.Stats(ctx, Config{Scale: scale, Seed: seed, Point: p})
		return st, err
	}
	opt.Gate = s.AcquireSlot
	if len(req.Cores) > 0 {
		if aerr := front.CheckCores(req.Cores); aerr != nil {
			api.WriteError(w, aerr)
			return
		}
		opt.Cores = req.Cores
	}
	runner := exp.NewRunner(opt)

	var tables bytes.Buffer
	var tableOut io.Writer = &tables
	if format != "text" {
		tableOut = io.Discard
	}
	if err := e.Run(ctx, runner, tableOut); err != nil {
		api.WriteError(w, front.RunError(err))
		return
	}
	s.countExperiment(e.ID)
	if format == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write(tables.Bytes())
		return
	}
	front.WriteResultSet(w, runner.Export(), format, api.ExperimentFormats)
}

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = io.WriteString(w, "{\"status\":\"ok\"}\n")
}
