package service

import (
	"context"
	"io"
	"net/http"

	"swarmhints/internal/fault"
	"swarmhints/internal/front"
	"swarmhints/internal/obs"
	"swarmhints/swarm/api"
)

// The work-bearing run, sweep and experiment endpoints are the shared front
// end (internal/front) over this service's cached, coalesced worker fleet,
// and /metrics is front.Metrics over PromMetrics; health is swarmd's own.

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
		OnExperiment: s.countExperiment,
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", s.admit(fe.Run))
	mux.HandleFunc("POST /v1/sweep", s.admit(fe.Sweep))
	mux.HandleFunc("GET /v1/experiments", fe.Experiments)
	mux.HandleFunc("POST /v1/experiments/{id}", s.admit(fe.Experiment))
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

func (s *Service) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	_, _ = io.WriteString(w, "{\"status\":\"ok\"}\n")
}
