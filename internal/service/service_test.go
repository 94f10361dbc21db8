package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"swarmhints/internal/bench"
	"swarmhints/internal/exp"
	"swarmhints/swarm"
	"swarmhints/swarm/api"
)

// tinyConfig is the cheap configuration the unit tests hammer.
func tinyConfig(name string, cores int) Config {
	return Config{Scale: bench.Tiny, Seed: 7, Point: exp.Point{
		Name: name, Kind: swarm.Hints, Cores: cores,
	}}
}

func TestConfigKeyUsesCanonicalPointKey(t *testing.T) {
	cfg := tinyConfig("des", 4)
	if !strings.HasSuffix(cfg.Key(), cfg.Point.Key()) {
		t.Fatalf("service key %q does not embed the harness key %q", cfg.Key(), cfg.Point.Key())
	}
	if !strings.HasPrefix(cfg.Key(), "tiny/7/") {
		t.Fatalf("service key %q lacks the (scale, seed) prefix", cfg.Key())
	}
}

func TestLRUEvictsOldest(t *testing.T) {
	c := newLRU(2)
	body := func(n byte) []byte { return []byte{n} }
	c.add("a", body(1))
	c.add("b", body(2))
	if _, ok := c.get("a"); !ok { // refresh a: b becomes the eviction victim
		t.Fatal("a missing")
	}
	c.add("c", body(3))
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted (least recently used)")
	}
	for _, want := range []string{"a", "c"} {
		if _, ok := c.get(want); !ok {
			t.Fatalf("%s missing after eviction", want)
		}
	}
	if c.len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.len())
	}
}

func TestLRURefreshDoesNotGrow(t *testing.T) {
	c := newLRU(2)
	body := []byte("{}")
	c.add("a", body)
	c.add("a", body)
	if c.len() != 1 {
		t.Fatalf("duplicate add grew the cache to %d entries", c.len())
	}
}

// TestSingleflightUnderRace is the concurrency contract (run under -race in
// CI): 32 goroutines hammer the same configuration concurrently; exactly
// one simulation executes, every caller gets byte-identical output, and the
// hit/miss/coalesced counters account for every request.
func TestSingleflightUnderRace(t *testing.T) {
	svc := New(Options{Workers: 4, Validate: true})
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	const callers = 32
	body := `{"bench":"des","sched":"hints","cores":4,"scale":"tiny"}`
	bodies := make([][]byte, callers)
	sources := make([]string, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("caller %d: status %d", i, resp.StatusCode)
				return
			}
			bodies[i], err = io.ReadAll(resp.Body)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			sources[i] = resp.Header.Get("X-Swarmd-Source")
		}()
	}
	wg.Wait()

	for i := 1; i < callers; i++ {
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("caller %d got different bytes than caller 0", i)
		}
	}
	if len(bodies[0]) == 0 {
		t.Fatal("empty response body")
	}

	c := svc.Counters()
	if c.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 simulation executed", c.Misses)
	}
	if got := c.RunsByBench["des"]; got != 1 {
		t.Errorf("runs[des] = %d, want 1", got)
	}
	if total := c.Hits + c.Misses + c.Coalesced; total != callers {
		t.Errorf("hits(%d)+misses(%d)+coalesced(%d) = %d, want %d",
			c.Hits, c.Misses, c.Coalesced, total, callers)
	}
	// Every non-executing caller was either coalesced onto the in-flight
	// run or answered from the already-filled cache.
	ran := 0
	for _, src := range sources {
		if src == string(SourceRun) {
			ran++
		}
	}
	if ran != 1 {
		t.Errorf("%d callers report source=run, want 1", ran)
	}
	if c.Queued != 0 || c.InFlight != 0 {
		t.Errorf("gauges not drained: queued=%d inflight=%d", c.Queued, c.InFlight)
	}
}

// TestStatsWarmCacheSkipsExecution pins the caching behavior at the API
// level: a repeat of a completed configuration is a pure cache hit, served
// as the very bytes the run encoded.
func TestStatsWarmCacheSkipsExecution(t *testing.T) {
	svc := New(Options{Workers: 2, Validate: true})
	defer svc.Close()
	ctx := context.Background()
	cfg := tinyConfig("bfs", 1)

	b1, src1, err := svc.Body(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if src1 != SourceRun {
		t.Fatalf("cold call source = %v, want run", src1)
	}
	b2, src2, err := svc.Body(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if src2 != SourceCache {
		t.Fatalf("warm call source = %v, want cache", src2)
	}
	if len(b1) == 0 || &b1[0] != &b2[0] {
		t.Fatal("warm call returned different bytes than the cached run's body")
	}
	c := svc.Counters()
	if c.Hits != 1 || c.Misses != 1 || c.Cached != 1 {
		t.Fatalf("counters hits=%d misses=%d cached=%d, want 1/1/1", c.Hits, c.Misses, c.Cached)
	}
}

// TestStatsCanceledWhileQueued checks an abandoned request frees its queue
// position without executing.
func TestStatsCanceledWhileQueued(t *testing.T) {
	svc := New(Options{Workers: 1, Validate: true})
	defer svc.Close()
	// Occupy the only worker slot.
	svc.sem <- struct{}{}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := svc.Stats(ctx, tinyConfig("bfs", 1))
	if err == nil {
		t.Fatal("canceled request executed anyway")
	}
	<-svc.sem
	c := svc.Counters()
	if c.Queued != 0 {
		t.Fatalf("queue depth %d after canceled request, want 0", c.Queued)
	}
	if len(c.RunsByBench) != 0 {
		t.Fatalf("canceled request recorded a run: %v", c.RunsByBench)
	}
}

// TestCoalescedSurvivesLeaderCancel checks a coalesced caller is not
// failed by the flight leader's disconnect: the shared run executes under
// the flight's own context, which lives as long as any caller wants the
// result.
func TestCoalescedSurvivesLeaderCancel(t *testing.T) {
	svc := New(Options{Workers: 1, Validate: true})
	defer svc.Close()
	// Occupy the only worker slot so the leader queues inside its flight.
	svc.sem <- struct{}{}
	cfg := tinyConfig("bfs", 1)

	leaderCtx, cancelLeader := context.WithCancel(context.Background())
	type outcome struct {
		st  *swarm.Stats
		src Source
		err error
	}
	leaderDone := make(chan outcome, 1)
	go func() {
		st, src, err := svc.Stats(leaderCtx, cfg)
		leaderDone <- outcome{st, src, err}
	}()
	waitFor := func(cond func() bool, what string) {
		t.Helper()
		for i := 0; i < 2000 && !cond(); i++ {
			time.Sleep(time.Millisecond)
		}
		if !cond() {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
	waitFor(func() bool { return svc.Counters().Queued == 1 }, "leader to queue")

	waiterDone := make(chan outcome, 1)
	go func() {
		st, src, err := svc.Stats(context.Background(), cfg)
		waiterDone <- outcome{st, src, err}
	}()
	waitFor(func() bool { return svc.Counters().Coalesced == 1 }, "waiter to coalesce")

	// The leader's request dies, then the fleet frees up.
	cancelLeader()
	<-svc.sem

	waiter := <-waiterDone
	if waiter.err != nil {
		t.Fatalf("coalesced caller failed after leader cancel: %v", waiter.err)
	}
	if waiter.src != SourceCoalesced || waiter.st == nil {
		t.Fatalf("waiter outcome src=%v st=%v", waiter.src, waiter.st)
	}
	<-leaderDone // the leader goroutine ran the flight to completion
	if c := svc.Counters(); c.RunsByBench["bfs"] != 1 || c.Cached != 1 {
		t.Fatalf("flight result not recorded: %+v", c)
	}
}

// TestFlightAbandonedByAllCallersAborts checks the complementary property:
// when every interested caller is gone, the queued flight stops consuming
// the fleet instead of running to completion.
func TestFlightAbandonedByAllCallersAborts(t *testing.T) {
	svc := New(Options{Workers: 1, Validate: true})
	defer svc.Close()
	svc.sem <- struct{}{}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := svc.Stats(ctx, tinyConfig("bfs", 4))
		done <- err
	}()
	for i := 0; i < 2000 && svc.Counters().Queued != 1; i++ {
		time.Sleep(time.Millisecond)
	}
	cancel()
	err := <-done
	if err == nil {
		t.Fatal("fully abandoned flight still produced a result")
	}
	<-svc.sem
	if c := svc.Counters(); len(c.RunsByBench) != 0 {
		t.Fatalf("abandoned flight executed: %+v", c.RunsByBench)
	}
}

func TestHealthzAndExperimentList(t *testing.T) {
	svc := New(DefaultOptions())
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(b), `"ok"`) {
		t.Fatalf("healthz: %d %q", resp.StatusCode, b)
	}

	resp, err = http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []struct{ ID, Title string }
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != len(exp.Registry) {
		t.Fatalf("experiment list has %d entries, want %d", len(list), len(exp.Registry))
	}
	if list[0].ID != "table1" {
		t.Fatalf("experiment list not in paper order: %+v", list[0])
	}
}

func TestRunRequestRejectsUnknownFields(t *testing.T) {
	svc := New(DefaultOptions())
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	resp, err := http.Post(ts.URL+"/v1/run", "application/json",
		strings.NewReader(`{"bench":"des","sched":"hints","coores":4}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("typoed field accepted: status %d", resp.StatusCode)
	}
	aerr := decodeEnvelope(t, resp)
	if aerr.Code != api.CodeBadRequest {
		t.Fatalf("code = %q, want %q", aerr.Code, api.CodeBadRequest)
	}
}

// decodeEnvelope asserts a response body is exactly the structured error
// envelope {"error":{"code","message","retryable"}} — nothing else, no
// plain-text http.Error fallback — and returns the decoded error.
func decodeEnvelope(t *testing.T, resp *http.Response) *api.Error {
	t.Helper()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var env struct {
		Error *api.Error `json:"error"`
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil || env.Error == nil {
		t.Fatalf("response is not the error envelope (err=%v): %q", err, body)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope missing code or message: %q", body)
	}
	if got, want := resp.StatusCode, env.Error.HTTPStatus(); got != want {
		t.Fatalf("status %d does not match code %q (want %d)", got, env.Error.Code, want)
	}
	return env.Error
}

// TestErrorEnvelopeOnAllEndpoints pins the wire contract: every error
// response on the /v1 surface is the structured envelope with a stable
// code — no endpoint falls back to plain-text http.Error bodies.
func TestErrorEnvelopeOnAllEndpoints(t *testing.T) {
	svc := New(DefaultOptions())
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	cases := []struct {
		name      string
		path      string
		body      string
		code      api.Code
		status    int
		retryable bool
	}{
		{"run/bad-json", "/v1/run", `{"bench":`, api.CodeBadRequest, 400, false},
		{"run/unknown-bench", "/v1/run", `{"bench":"no-such","sched":"hints","cores":1,"scale":"tiny"}`, api.CodeUnknownBench, 400, false},
		{"run/unknown-sched", "/v1/run", `{"bench":"des","sched":"warp","cores":1,"scale":"tiny"}`, api.CodeUnknownSched, 400, false},
		{"run/unknown-scale", "/v1/run", `{"bench":"des","sched":"hints","cores":1,"scale":"giant"}`, api.CodeUnknownScale, 400, false},
		{"run/bad-cores", "/v1/run", `{"bench":"des","sched":"hints","cores":3,"scale":"tiny"}`, api.CodeBadCores, 400, false},
		{"sweep/empty-grid", "/v1/sweep", `{"benches":["des"],"scheds":[],"cores":[1],"scale":"tiny"}`, api.CodeBadRequest, 400, false},
		{"sweep/unknown-format", "/v1/sweep", `{"benches":["des"],"scheds":["hints"],"cores":[1],"scale":"tiny","format":"xml"}`, api.CodeUnknownFormat, 400, false},
		{"experiment/unknown-id", "/v1/experiments/fig99", `{}`, api.CodeUnknownExperiment, 404, false},
		{"experiment/unknown-format", "/v1/experiments/fig2", `{"scale":"tiny","format":"yaml"}`, api.CodeUnknownFormat, 400, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d", resp.StatusCode, tc.status)
			}
			aerr := decodeEnvelope(t, resp)
			if aerr.Code != tc.code {
				t.Fatalf("code = %q, want %q (message %q)", aerr.Code, tc.code, aerr.Message)
			}
			if aerr.Retryable != tc.retryable {
				t.Fatalf("retryable = %v, want %v", aerr.Retryable, tc.retryable)
			}
		})
	}
}

// TestUnknownFormatListsEndpointFormats checks the unified unknown-format
// helper reports the formats each endpoint actually supports: /v1/sweep
// has no "text", /v1/experiments/{id} does.
func TestUnknownFormatListsEndpointFormats(t *testing.T) {
	svc := New(DefaultOptions())
	defer svc.Close()
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()

	get := func(path, body string) string {
		t.Helper()
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return decodeEnvelope(t, resp).Message
	}
	sweepMsg := get("/v1/sweep", `{"benches":["des"],"scheds":["hints"],"cores":[1],"scale":"tiny","format":"xml"}`)
	if !strings.Contains(sweepMsg, "ndjson, json, csv") || strings.Contains(sweepMsg, "text") {
		t.Errorf("sweep unknown-format message lists wrong formats: %q", sweepMsg)
	}
	expMsg := get("/v1/experiments/fig2", `{"scale":"tiny","format":"xml"}`)
	if !strings.Contains(expMsg, "text") {
		t.Errorf("experiment unknown-format message omits text: %q", expMsg)
	}
}

// TestPromMetricsWellFormed checks /metrics speaks the exposition format
// and carries the counters the acceptance criteria rely on.
func TestPromMetricsWellFormed(t *testing.T) {
	svc := New(Options{Workers: 1, Validate: true})
	defer svc.Close()
	if _, _, err := svc.Stats(context.Background(), tinyConfig("bfs", 1)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	out := string(b)
	for _, want := range []string{
		"# TYPE swarmd_cache_hits_total counter",
		"swarmd_cache_misses_total 1",
		"swarmd_cache_entries 1",
		"# TYPE swarmd_queue_depth gauge",
		fmt.Sprintf("swarmd_runs_total{bench=%q} 1", "bfs"),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q:\n%s", want, out)
		}
	}
}
