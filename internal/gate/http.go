package gate

import (
	"context"
	"encoding/json"
	"io"
	"net/http"

	"swarmhints/internal/fault"
	"swarmhints/internal/front"
	"swarmhints/internal/metrics"
	"swarmhints/internal/obs"
	"swarmhints/swarm/api"
)

// The gateway serves the same /v1 surface as a single swarmd, on the same
// swarm/api contract. Run and sweep requests go through the shared front
// end (internal/front) with the replica router as its point executor, so
// the gateway validates with exactly the logic the replicas use — it never
// forwards a point a replica would reject, and its validation errors are
// a replica's — and assembles every response with the same code.

// replicaHeader names the replica that served a run or experiment.
const replicaHeader = "X-Swarmgate-Replica"

// Handler returns the gateway's HTTP API.
func (g *Gateway) Handler() http.Handler {
	fe := &front.Front{
		Name:         "swarmgate",
		Exec:         g.exec,
		Parallel:     g.opt.Concurrency,
		SourceHeader: replicaHeader,
		OnSweep:      func() { g.sweeps.Add(1) },
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", fe.Run)
	mux.HandleFunc("POST /v1/sweep", fe.Sweep)
	mux.HandleFunc("GET /v1/experiments", g.handleExperimentList)
	mux.HandleFunc("POST /v1/experiments/{id}", g.handleExperiment)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	obs.Default.Mount(mux)
	if g.opt.FaultAdmin {
		mux.Handle("/v1/faults", fault.AdminHandler(fault.Default))
	}
	return mux
}

// exec is the front end's point executor: route the point to a replica
// and relay the replica's body, which the attempt checked is the canonical
// record of exactly this point. The serving replica's URL is the
// provenance.
func (g *Gateway) exec(ctx context.Context, cfg front.Config) ([]byte, string, error) {
	body, url, aerr := g.runPoint(ctx, cfg)
	if aerr != nil {
		return nil, "", aerr
	}
	return body, url, nil
}

// proxy runs one whole-request call against a replica, routed on the hash
// of name (an experiment id) as a point is on its key, and re-routes
// retryable failures to a different replica like any point.
func (g *Gateway) proxy(ctx context.Context, name string, call func(*replica) error) *api.Error {
	key := g.routeKey(name)
	var lastErr *api.Error
	last := -1
	for a := 0; a <= g.opt.Retries; a++ {
		if err := ctx.Err(); err != nil {
			return api.Errorf(api.CodeShuttingDown, "%v", err)
		}
		i := g.pick(key, last)
		rep := g.replicas[i]
		err := call(rep)
		if err == nil {
			return nil
		}
		lastErr = api.AsError(err)
		if ctx.Err() != nil || !lastErr.Retryable {
			break
		}
		if lastErr.Code == api.CodeUnavailable || lastErr.Code == api.CodeShuttingDown {
			rep.healthy.Store(false)
		}
		last = i
	}
	return lastErr
}

// handleExperimentList proxies GET /v1/experiments from a replica and
// re-encodes it — the listing is identical on every replica.
func (g *Gateway) handleExperimentList(w http.ResponseWriter, r *http.Request) {
	var list []api.ExperimentInfo
	if aerr := g.proxy(r.Context(), "", func(rep *replica) (err error) {
		list, err = rep.client.Experiments(r.Context())
		return err
	}); aerr != nil {
		api.WriteError(w, aerr)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(list)
}

// handleExperiment proxies POST /v1/experiments/{id} to one replica — an
// experiment is a single unit of work (its points still hit the shared
// store, so fleet-wide reuse holds).
func (g *Gateway) handleExperiment(w http.ResponseWriter, r *http.Request) {
	ctx, sp := front.Traced(w, r, "swarmgate.experiment")
	defer sp.End()
	id := r.PathValue("id")
	sp.SetAttr("experiment", id)
	var req api.ExperimentRequest
	if aerr := api.DecodeRequest(w, r, &req); aerr != nil {
		api.WriteError(w, aerr)
		return
	}
	if aerr := g.proxy(ctx, id, func(rep *replica) error {
		body, contentType, err := rep.client.Experiment(ctx, id, req)
		if err != nil {
			return err
		}
		defer body.Close()
		w.Header().Set("Content-Type", contentType)
		w.Header().Set(replicaHeader, rep.url)
		_, _ = io.Copy(w, body)
		return nil
	}); aerr != nil {
		api.WriteError(w, aerr)
	}
}

// handleHealthz reports the gateway's own liveness plus the per-replica
// health flags (keys sorted by URL, so the body is deterministic).
func (g *Gateway) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	c := g.Counters()
	body := struct {
		Status   string          `json:"status"`
		Replicas map[string]bool `json:"replicas"`
	}{Status: "ok", Replicas: c.Healthy}
	w.Header().Set("Content-Type", "application/json")
	b, err := json.Marshal(body)
	if err != nil {
		api.WriteError(w, api.Errorf(api.CodeInternal, "%v", err))
		return
	}
	_, _ = w.Write(append(b, '\n'))
}

func (g *Gateway) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = metrics.WriteProm(w, g.PromMetrics())
}
