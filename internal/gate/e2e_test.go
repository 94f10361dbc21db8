package gate

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"swarmhints/internal/exp"
	"swarmhints/internal/front"
	"swarmhints/internal/service"
	"swarmhints/internal/store"
	"swarmhints/swarm/api"
)

// fig2SweepBody is the same fig2-tiny grid the service e2e tests use: its
// golden export (internal/exp/testdata) is the differential oracle for the
// gateway's byte-identity guarantee.
const fig2SweepBody = `{
	"benches": ["des"],
	"scheds":  ["random", "stealing", "hints", "lbhints"],
	"cores":   [1, 4],
	"scale":   "tiny",
	"format":  "%s"
}`

func fig2Golden(t *testing.T) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "exp", "testdata", "export_fig2_tiny.golden.json"))
	if err != nil {
		t.Fatalf("golden export missing: %v", err)
	}
	return b
}

// startReplica boots one in-process swarmd replica, optionally on a shared
// persistent store directory.
func startReplica(t *testing.T, storeDir string) *httptest.Server {
	t.Helper()
	opt := service.Options{Workers: 4, Validate: true}
	if storeDir != "" {
		st, err := store.Open(storeDir, 0)
		if err != nil {
			t.Fatal(err)
		}
		opt.Store = st
	}
	svc := service.New(opt)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return ts
}

// startGateway fronts the given replicas under the default seed. The
// background prober is disabled so tests control health deterministically
// (in-band outcomes and explicit ProbeOnce calls still maintain it).
func startGateway(t *testing.T, replicas ...string) (*Gateway, *httptest.Server) {
	t.Helper()
	return startChaosGateway(t, Options{Replicas: replicas})
}

// homeSeed returns the first gateway seed under which every point in cfgs
// has replica as its home in a fleet of n. A point's home depends only on
// the seed, the point's key and which replicas are candidates: a test that
// needs a point's first attempt to land on a chosen replica of a healthy
// fleet starts its gateway under this seed.
func homeSeed(t *testing.T, n, replica int, cfgs ...front.Config) int64 {
	t.Helper()
	every := make([]int, n)
	for i := range every {
		every[i] = i
	}
	for seed := int64(1); seed <= 1<<16; seed++ {
		g := &Gateway{opt: Options{Seed: seed}}
		home := true
		for _, cfg := range cfgs {
			home = home && pickHome(g.routeKey(cfg.Key()), every) == replica
		}
		if home {
			return seed
		}
	}
	t.Fatalf("no seed homes all %d points on replica %d of %d", len(cfgs), replica, n)
	return 0
}

// runConfig resolves a /v1/run body into the configuration the gateway
// routes.
func runConfig(t *testing.T, body string) front.Config {
	t.Helper()
	var req api.RunRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	cfg, aerr := front.ParseRun(req)
	if aerr != nil {
		t.Fatal(aerr)
	}
	return cfg
}

// fig2Configs is the fig2-tiny sweep's grid in canonical order, the order
// the gateway launches its points in.
func fig2Configs(t *testing.T) []front.Config {
	t.Helper()
	var req api.SweepRequest
	if err := json.Unmarshal([]byte(strings.Replace(fig2SweepBody, "%s", "json", 1)), &req); err != nil {
		t.Fatal(err)
	}
	points, scale, seed, aerr := front.ParseSweep(req)
	if aerr != nil {
		t.Fatal(aerr)
	}
	cfgs := make([]front.Config, len(points))
	for i, p := range points {
		cfgs[i] = front.Config{Scale: scale, Seed: seed, Point: p}
	}
	return cfgs
}

func post(t *testing.T, url, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

func postSweep(t *testing.T, url, format string) []byte {
	t.Helper()
	resp, b := post(t, url, "/v1/sweep", strings.Replace(fig2SweepBody, "%s", format, 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, b)
	}
	return b
}

// TestGatewaySweepMatchesSingleSwarmd is the gateway's acceptance
// criterion: for every response format, a fig2-tiny sweep through a 3-replica fleet produces exactly the bytes a single
// swarmd produces — and the JSON leg exactly the committed golden export.
// The whole matrix runs with tracing and histograms enabled: spans and
// observations are side channels, so instrumented responses must stay
// byte-identical to the golden recorded before observability existed.
func TestGatewaySweepMatchesSingleSwarmd(t *testing.T) {
	withObs(t)
	single := startReplica(t, "")
	want := map[string][]byte{}
	for _, format := range []string{"ndjson", "json", "csv"} {
		want[format] = postSweep(t, single.URL, format)
	}
	if !bytes.Equal(want["json"], fig2Golden(t)) {
		t.Fatal("single-swarmd JSON sweep no longer matches the golden; fix that first")
	}

	dir := t.TempDir() // one store shared by the whole fleet
	r1, r2, r3 := startReplica(t, dir), startReplica(t, dir), startReplica(t, dir)
	g, ts := startGateway(t, r1.URL, r2.URL, r3.URL)
	for _, format := range []string{"ndjson", "json", "csv"} {
		got := postSweep(t, ts.URL, format)
		if !bytes.Equal(got, want[format]) {
			t.Errorf("%s: gateway bytes differ from single swarmd (%d vs %d bytes)",
				format, len(got), len(want[format]))
		}
	}
	c := g.Counters()
	if c.Points < 24 { // 8 points x 3 formats
		t.Errorf("gateway served %d points, want >= 24", c.Points)
	}
	if c.Sweeps != 3 {
		t.Errorf("gateway counted %d sweeps, want 3", c.Sweeps)
	}
}

// flakyReplica fronts a live replica but aborts every /v1/run after the
// first one mid-response — the deterministic stand-in for a replica killed
// mid-sweep (in-flight request cut, replica unreachable afterwards).
func flakyReplica(t *testing.T, backend *httptest.Server) *httptest.Server {
	t.Helper()
	var runs atomic.Int64
	var killed atomic.Bool
	proxy := func(w http.ResponseWriter, r *http.Request) {
		if killed.Load() {
			panic(http.ErrAbortHandler) // dead to every endpoint, probes included
		}
		if r.URL.Path == "/v1/run" && runs.Add(1) > 1 {
			killed.Store(true)
			panic(http.ErrAbortHandler) // cut the connection like a kill -9
		}
		req, err := http.NewRequestWithContext(r.Context(), r.Method, backend.URL+r.URL.Path, r.Body)
		if err != nil {
			panic(http.ErrAbortHandler)
		}
		req.Header = r.Header
		resp, err := http.DefaultTransport.RoundTrip(req)
		if err != nil {
			panic(http.ErrAbortHandler)
		}
		defer resp.Body.Close()
		for k, v := range resp.Header {
			w.Header()[k] = v
		}
		w.WriteHeader(resp.StatusCode)
		_, _ = io.Copy(w, resp.Body)
	}
	ts := httptest.NewServer(http.HandlerFunc(proxy))
	t.Cleanup(ts.Close)
	return ts
}

// TestGatewayReplicaKilledMidSweep: one of three replicas dies after
// serving its first point. The sweep must still complete with exactly the
// golden bytes — in-flight points on the dead replica re-route to the
// survivors — and the failure must be visible in swarmgate_replica_failed_total.
// (The gateway seed homes the grid's first three points on the doomed
// replica, so it receives at least two and one is cut mid-flight.)
func TestGatewayReplicaKilledMidSweep(t *testing.T) {
	dir := t.TempDir()
	r1, r2 := startReplica(t, dir), startReplica(t, dir)
	flaky := flakyReplica(t, startReplica(t, dir))

	g, ts := startChaosGateway(t, Options{
		Replicas: []string{r1.URL, r2.URL, flaky.URL},
		Seed:     homeSeed(t, 3, 2, fig2Configs(t)[:3]...),
	})
	got := postSweep(t, ts.URL, "ndjson")

	// The stream is complete — trailer and all — and reassembles to golden.
	dec, err := api.NewStreamDecoder(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	var n int
	for {
		_, ok, err := dec.Next()
		if err != nil {
			t.Fatalf("gateway stream after replica kill: %v", err)
		}
		if !ok {
			break
		}
		n++
	}
	if n != 8 || dec.Trailer() == nil || !dec.Trailer().Complete {
		t.Fatalf("stream carried %d records, trailer %+v; want 8 and complete", n, dec.Trailer())
	}
	single := startReplica(t, "")
	if want := postSweep(t, single.URL, "ndjson"); !bytes.Equal(got, want) {
		t.Error("post-kill gateway stream differs from a single swarmd's bytes")
	}

	// A probe against the now-dead replica drains it (a late in-band
	// success can race the failure, so health is asserted post-probe).
	g.ProbeOnce(context.Background())
	c := g.Counters()
	if c.Failed[flaky.URL] == 0 {
		t.Errorf("no failures recorded on the killed replica: %+v", c.Failed)
	}
	if c.Healthy[flaky.URL] {
		t.Error("killed replica still marked healthy after probe")
	}
	if failed := promCounter(t, ts.URL, `swarmgate_replica_failed_total\{replica="`+regexp.QuoteMeta(flaky.URL)+`"\}`); failed == 0 {
		t.Error("swarmgate_replica_failed_total not incremented for the killed replica")
	}
	if c.Retried[r1.URL]+c.Retried[r2.URL] == 0 {
		t.Error("no re-routed retries recorded on the surviving replicas")
	}
}

// promCounter extracts one metric value from the gateway's /metrics;
// pattern is a regexp matching the series name (with labels).
func promCounter(t *testing.T, url, pattern string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	m := regexp.MustCompile(`(?m)^` + pattern + ` (\S+)$`).FindSubmatch(b)
	if m == nil {
		t.Fatalf("metric /%s/ missing from /metrics:\n%s", pattern, b)
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestGatewayRunMatchesSingleSwarmd: the single-point proxy path is
// byte-identical too, and reports which replica served it.
func TestGatewayRunMatchesSingleSwarmd(t *testing.T) {
	single := startReplica(t, "")
	body := `{"bench":"des","sched":"random","cores":1,"scale":"tiny"}`
	resp, want := post(t, single.URL, "/v1/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single run status %d: %s", resp.StatusCode, want)
	}

	dir := t.TempDir()
	r1, r2 := startReplica(t, dir), startReplica(t, dir)
	_, ts := startGateway(t, r1.URL, r2.URL)
	resp, got := post(t, ts.URL, "/v1/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway run status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Error("gateway /v1/run bytes differ from single swarmd")
	}
	if rep := resp.Header.Get("X-Swarmgate-Replica"); rep != r1.URL && rep != r2.URL {
		t.Errorf("X-Swarmgate-Replica = %q, want one of the fleet", rep)
	}
}

// TestGatewayErrorEnvelope: the gateway speaks the same error contract as
// the replicas — structured envelope, same codes, no plain-text bodies —
// including for requests it rejects locally without touching the fleet:
// every rejection's status and body bytes equal a direct swarmd's.
func TestGatewayErrorEnvelope(t *testing.T) {
	single := startReplica(t, "")
	r1 := startReplica(t, "")
	_, ts := startGateway(t, r1.URL)
	cases := []struct {
		path   string
		body   string
		code   api.Code
		status int
	}{
		{"/v1/run", `{"bench":"no-such","sched":"hints","cores":1,"scale":"tiny"}`, api.CodeUnknownBench, 400},
		{"/v1/run", `{"bench":"des","sched":"warp","cores":1,"scale":"tiny"}`, api.CodeUnknownSched, 400},
		{"/v1/run", `{"bench":"des","sched":"hints","cores":1,"scale":"giant"}`, api.CodeUnknownScale, 400},
		{"/v1/run", `{"bench":"des","sched":"hints","cores":3,"scale":"tiny"}`, api.CodeBadCores, 400},
		{"/v1/run", `{"bench":"des","sched":"hints","cores":1,"scale":"tiny","seeds":-1}`, api.CodeBadRequest, 400},
		{"/v1/run", `{"bench":"des","sched":"hints","cores":1,"scale":"tiny","seeds":4097}`, api.CodeBadRequest, 400},
		{"/v1/run", `{"bench":"des","sched":"hints","cores":1,"scale":"tiny","color":"red"}`, api.CodeBadRequest, 400},
		{"/v1/run", `{"bench":`, api.CodeBadRequest, 400},
		{"/v1/sweep", `{"benches":["des"],"scheds":["hints"],"cores":[1],"scale":"tiny","format":"xml"}`, api.CodeUnknownFormat, 400},
		{"/v1/sweep", `{"benches":[],"scheds":["hints"],"cores":[1],"scale":"tiny"}`, api.CodeBadRequest, 400},
		{"/v1/experiments/fig99", `{}`, api.CodeUnknownExperiment, 404},
		{"/v1/experiments/fig2", `{"scale":"tiny","format":"yaml"}`, api.CodeUnknownFormat, 400},
	}
	for _, tc := range cases {
		resp, b := post(t, ts.URL, tc.path, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s %s: status %d, want %d (%s)", tc.path, tc.body, resp.StatusCode, tc.status, b)
			continue
		}
		aerr := api.DecodeError(resp.StatusCode, bytes.TrimSpace(b))
		if aerr.Code != tc.code {
			t.Errorf("%s %s: code %q, want %q (%s)", tc.path, tc.body, aerr.Code, tc.code, b)
		}
		wantResp, want := post(t, single.URL, tc.path, tc.body)
		if resp.StatusCode != wantResp.StatusCode || !bytes.Equal(b, want) {
			t.Errorf("%s %s: gateway answered %d %s, a direct swarmd %d %s",
				tc.path, tc.body, resp.StatusCode, b, wantResp.StatusCode, want)
		}
	}
}

// TestGatewayExperimentProxy: listing and running experiments through the
// gateway, with its balancer named explicitly, returns exactly what a
// replica returns, and no proxied call counts as a failed attempt.
func TestGatewayExperimentProxy(t *testing.T) {
	t.Run(BalancerAdaptive, func(t *testing.T) {
		single := startReplica(t, "")
		wantList := func(url string) []byte {
			resp, err := http.Get(url + "/v1/experiments")
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			b, _ := io.ReadAll(resp.Body)
			return b
		}
		dir := t.TempDir()
		r1, r2 := startReplica(t, dir), startReplica(t, dir)
		g, ts := startChaosGateway(t, Options{Replicas: []string{r1.URL, r2.URL}, Balancer: BalancerAdaptive})
		for i := 0; i < 4; i++ {
			if got, want := wantList(ts.URL), wantList(single.URL); !bytes.Equal(got, want) {
				t.Errorf("gateway experiment listing differs:\n%s\nvs\n%s", got, want)
			}
		}

		body := `{"scale":"tiny","cores":[1,4]}`
		resp, got := post(t, ts.URL, "/v1/experiments/fig2", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("gateway fig2 status %d: %s", resp.StatusCode, got)
		}
		if !bytes.Equal(got, fig2Golden(t)) {
			t.Error("gateway-proxied fig2 differs from the golden export")
		}
		for u, n := range g.Counters().Failed {
			if n != 0 {
				t.Errorf("replica %s failed %d attempts during the proxied calls, want 0", u, n)
			}
		}
	})
}

// TestGatewayExperimentFansOut: the gateway runs an experiment itself, a
// point at a time, each point on its home replica. fig2 and ablserial —
// whose serialization-free runs are HintsNoSerial points like any other —
// come back byte-identical to a single swarmd's in every format asked for,
// both replicas serve some of the points, and the listing needs no
// replica at all.
func TestGatewayExperimentFansOut(t *testing.T) {
	single := startReplica(t, "")
	r1, r2 := startReplica(t, ""), startReplica(t, "")
	g, ts := startGateway(t, r1.URL, r2.URL)
	client := api.NewClient(ts.URL, nil)
	for _, tc := range []struct{ id, format string }{
		{"fig2", "json"},
		{"fig2", "csv"},
		{"fig2", "ndjson"},
		{"ablserial", "json"},
		{"ablserial", "text"},
	} {
		body := `{"scale":"tiny","cores":[1,4],"format":"` + tc.format + `"}`
		path := "/v1/experiments/" + tc.id
		wantResp, want := post(t, single.URL, path, body)
		if wantResp.StatusCode != http.StatusOK {
			t.Fatalf("single %s %s status %d: %s", tc.id, tc.format, wantResp.StatusCode, want)
		}
		resp, got := post(t, ts.URL, path, body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("gateway %s %s status %d: %s", tc.id, tc.format, resp.StatusCode, got)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s %s: gateway bytes differ from single swarmd:\n%s\nvs\n%s", tc.id, tc.format, got, want)
		}
		if ct, wct := resp.Header.Get("Content-Type"), wantResp.Header.Get("Content-Type"); ct != wct {
			t.Errorf("%s %s: Content-Type %q, single swarmd %q", tc.id, tc.format, ct, wct)
		}

		// The typed client reaches the same bytes through the gateway.
		rc, ct, err := client.Experiment(context.Background(), tc.id,
			api.ExperimentRequest{Scale: "tiny", Cores: []int{1, 4}, Format: tc.format})
		if err != nil {
			t.Fatalf("client %s %s: %v", tc.id, tc.format, err)
		}
		cgot, err := io.ReadAll(rc)
		rc.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(cgot, want) {
			t.Errorf("%s %s: client bytes differ from single swarmd:\n%s\nvs\n%s", tc.id, tc.format, cgot, want)
		}
		if wct := wantResp.Header.Get("Content-Type"); ct != wct {
			t.Errorf("%s %s: client Content-Type %q, single swarmd %q", tc.id, tc.format, ct, wct)
		}
	}
	for u, n := range g.Counters().Routed {
		if n == 0 {
			t.Errorf("replica %s was routed no experiment point", u)
		}
	}

	r1.Close()
	r2.Close()
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	sresp, err := http.Get(single.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := io.ReadAll(sresp.Body)
	sresp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
		t.Errorf("listing with the fleet down: %d %s, want %s", resp.StatusCode, got, want)
	}
	list, err := client.Experiments(context.Background())
	if err != nil {
		t.Fatalf("client listing with the fleet down: %v", err)
	}
	if len(list) != len(exp.Registry) {
		t.Fatalf("client listed %d experiments, registry has %d", len(list), len(exp.Registry))
	}
	for i, e := range exp.Registry {
		if list[i] != (api.ExperimentInfo{ID: e.ID, Title: e.Title}) {
			t.Errorf("client listing[%d] = %+v, want {%s %s}", i, list[i], e.ID, e.Title)
		}
	}
}

// TestGatewayHealthProbing: ProbeOnce demotes an unreachable replica and
// re-admits it; /healthz reports the per-replica map.
func TestGatewayHealthProbing(t *testing.T) {
	r1 := startReplica(t, "")
	dead := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {}))
	deadURL := dead.URL
	dead.Close()

	g, ts := startGateway(t, r1.URL, deadURL)
	g.ProbeOnce(context.Background())
	c := g.Counters()
	if !c.Healthy[r1.URL] || c.Healthy[deadURL] {
		t.Fatalf("health after probe = %+v, want live=true dead=false", c.Healthy)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway healthz status %d", resp.StatusCode)
	}
	if !strings.Contains(string(b), `"status":"ok"`) || !strings.Contains(string(b), `false`) {
		t.Fatalf("healthz body lacks status or replica map: %s", b)
	}

	// Routing avoids the demoted replica entirely...
	resp2, body := post(t, ts.URL, "/v1/run", `{"bench":"des","sched":"random","cores":1,"scale":"tiny"}`)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("run with a dead replica in the fleet: %d %s", resp2.StatusCode, body)
	}
	if got := resp2.Header.Get("X-Swarmgate-Replica"); got != r1.URL {
		t.Errorf("point routed to %q, want the healthy replica", got)
	}
}
