package gate

import (
	"context"
	"encoding/json"
	"net/http"

	"swarmhints/internal/front"
	"swarmhints/internal/obs"
	"swarmhints/swarm/api"
)

// The gateway serves the same /v1 surface as a single swarmd, on the same
// swarm/api contract. Run, sweep and experiment requests go through the
// shared front end (internal/front) with the replica router as its point
// executor, so the gateway validates with exactly the logic the replicas
// use — it never forwards a point a replica would reject, and its
// validation errors are a replica's — and assembles every response with
// the same code. An experiment's points each go to their home replica.

// replicaHeader names the replica that served a run.
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
	mux.HandleFunc("GET /v1/experiments", fe.Experiments)
	mux.HandleFunc("POST /v1/experiments/{id}", fe.Experiment)
	mux.HandleFunc("GET /healthz", g.handleHealthz)
	mux.HandleFunc("GET /metrics", front.Metrics(g.PromMetrics))
	obs.Default.Mount(mux)
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
