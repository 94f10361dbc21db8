package gate

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"swarmhints/internal/bench"
	"swarmhints/internal/exp"
	"swarmhints/internal/fault"
	"swarmhints/internal/front"
	"swarmhints/internal/service"
	"swarmhints/swarm"
	"swarmhints/swarm/api"
)

// emptyRecordReplica answers every /v1/run with a 200 whose result set
// carries zero records — the malformed-but-reachable replica of the
// rs.Records[0] regression.
func emptyRecordReplica(t *testing.T) *httptest.Server {
	t.Helper()
	return runAnswerReplica(t, func(w http.ResponseWriter) {
		_, _ = w.Write([]byte(`{"schema":"swarmhints.metrics.v1","records":[]}`))
	})
}

// runAnswerReplica answers every /v1/run with a 200 written by answer; its
// /healthz is green, so only in-band outcomes can change its standing.
func runAnswerReplica(t *testing.T, answer func(w http.ResponseWriter)) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/run" {
			w.Header().Set("Content-Type", "application/json")
			answer(w)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestGatewayEmptyReplicaResponse: a replica that answers 200 with a
// zero-record result set must not crash the point goroutine or poison the
// fleet — the point retries against a different replica and completes, and
// because the misbehaving replica is reachable (the failure is
// instance-bound internal, not unavailable), its health flag stays up so a
// fixed deploy re-enters rotation without waiting for a probe.
func TestGatewayEmptyReplicaResponse(t *testing.T) {
	single := startReplica(t, "")
	body := `{"bench":"des","sched":"random","cores":1,"scale":"tiny"}`
	resp, want := post(t, single.URL, "/v1/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single run status %d: %s", resp.StatusCode, want)
	}

	good := startReplica(t, "")
	bad := emptyRecordReplica(t)
	// The point's home is the bad replica: the very first attempt hits the
	// zero-record answer and must re-route.
	g, ts := startChaosGateway(t, Options{
		Replicas: []string{bad.URL, good.URL},
		Seed:     homeSeed(t, 2, 0, runConfig(t, body)),
	})

	resp, got := post(t, ts.URL, "/v1/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run with a zero-record replica in the fleet: %d %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Error("re-routed run bytes differ from single swarmd")
	}
	if rep := resp.Header.Get("X-Swarmgate-Replica"); rep != good.URL {
		t.Errorf("point served by %q, want the well-behaved replica", rep)
	}

	c := g.Counters()
	if c.Failed[bad.URL] == 0 {
		t.Error("zero-record answer not counted as a failed attempt")
	}
	if !c.Healthy[bad.URL] {
		t.Error("reachable replica demoted for an instance-bound internal error")
	}
	// A full sweep still reassembles, whatever share of the grid homes on
	// the misbehaving replica.
	if gotSweep, wantSweep := postSweep(t, ts.URL, "json"), fig2Golden(t); !bytes.Equal(gotSweep, wantSweep) {
		t.Error("sweep through a zero-record replica differs from the golden export")
	}
}

// checkReroutedRun runs body through a gateway over bad and a well-behaved
// replica, seeded so the point's home is bad: the point must come back as
// exactly the single swarmd bytes want, served by the good replica, with
// the bad attempt counted as failed and the reachable bad replica still
// healthy.
func checkReroutedRun(t *testing.T, bad *httptest.Server, body string, want []byte) {
	t.Helper()
	good := startReplica(t, "")
	g, ts := startChaosGateway(t, Options{
		Replicas: []string{bad.URL, good.URL},
		Seed:     homeSeed(t, 2, 0, runConfig(t, body)),
	})
	resp, got := post(t, ts.URL, "/v1/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("run with a misbehaving replica in the fleet: %d %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("re-routed run bytes differ from single swarmd:\n%s", got)
	}
	if rep := resp.Header.Get("X-Swarmgate-Replica"); rep != good.URL {
		t.Errorf("point served by %q, want the well-behaved replica", rep)
	}
	c := g.Counters()
	if c.Failed[bad.URL] == 0 {
		t.Error("misbehaving answer not counted as a failed attempt")
	}
	if !c.Healthy[bad.URL] {
		t.Error("reachable replica demoted for an instance-bound malformed answer")
	}
}

// TestGatewayRejectsMislabeledRecord: a replica answering des/random/1
// with the well-formed des/random/4 record must not have those 4-core
// statistics relayed under the 1-core labels — the attempt fails, and the
// point re-routes to a replica that answers the question asked.
func TestGatewayRejectsMislabeledRecord(t *testing.T) {
	single := startReplica(t, "")
	body := `{"bench":"des","sched":"random","cores":1,"scale":"tiny"}`
	resp, want := post(t, single.URL, "/v1/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single run status %d: %s", resp.StatusCode, want)
	}
	resp, four := post(t, single.URL, "/v1/run", `{"bench":"des","sched":"random","cores":4,"scale":"tiny"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single run status %d: %s", resp.StatusCode, four)
	}
	bad := runAnswerReplica(t, func(w http.ResponseWriter) { _, _ = w.Write(four) })
	checkReroutedRun(t, bad, body, want)
}

// TestGatewayRejectsMalformedRecords: well-framed but malformed answers —
// a cut stats object, bytes after the closing frame, a v2 stamp on a
// single-seed run, a body over the size bound, a Content-Length the body
// does not match — each fail their attempt and re-route without demoting
// the replica; the oversized body is abandoned at the bound, not read in
// full.
func TestGatewayRejectsMalformedRecords(t *testing.T) {
	single := startReplica(t, "")
	body := `{"bench":"des","sched":"random","cores":1,"scale":"tiny"}`
	resp, want := post(t, single.URL, "/v1/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single run status %d: %s", resp.StatusCode, want)
	}
	const suffix = "\n    }\n  ]\n}\n"
	start := bytes.Index(want, []byte(`"stats": `)) + len(`"stats": `)
	if start < len(`"stats": `) || !bytes.HasSuffix(want, []byte(suffix)) {
		t.Fatalf("unexpected run body layout:\n%s", want)
	}
	stats := want[start : len(want)-len(suffix)]
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for name, bad := range map[string][]byte{
		"truncated stats": cat(want[:start], stats[:len(stats)/2], []byte(suffix)),
		"trailing bytes":  cat(want, []byte(`{"stats":{}}`+"\n")),
		"v2 schema":       bytes.Replace(want, []byte("swarmhints.metrics.v1"), []byte("swarmhints.metrics.v2"), 1),
	} {
		t.Run(name, func(t *testing.T) {
			checkReroutedRun(t, runAnswerReplica(t, func(w http.ResponseWriter) { _, _ = w.Write(bad) }), body, want)
		})
	}
	t.Run("oversized", func(t *testing.T) {
		// Stream a never-ending stats object (no Content-Length) until the
		// gateway hangs up, counting what it accepted.
		const limit = 8 * api.MaxRecordBytes
		var written atomic.Int64
		bad := runAnswerReplica(t, func(w http.ResponseWriter) {
			chunk := bytes.Repeat([]byte(" "), 64<<10)
			n, _ := w.Write(want[:start])
			written.Add(int64(n))
			for written.Load() < limit {
				n, err := w.Write(chunk)
				written.Add(int64(n))
				if err != nil {
					return
				}
			}
		})
		checkReroutedRun(t, bad, body, want)
		bad.Close() // waits for the handler to finish writing
		if n := written.Load(); n >= limit/2 {
			t.Errorf("replica wrote %d bytes before the gateway gave up, want well under %d", n, limit/2)
		}
	})
	t.Run("declared oversized", func(t *testing.T) {
		// A Content-Length over the bound is refused before any body byte
		// is read.
		bad := runAnswerReplica(t, func(w http.ResponseWriter) {
			w.Header().Set("Content-Length", strconv.Itoa(api.MaxRecordBytes+1))
			_, _ = w.Write(want[:start])
		})
		checkReroutedRun(t, bad, body, want)
	})
	t.Run("declared longer than sent", func(t *testing.T) {
		// The connection closes short of the Content-Length: the read ends
		// early, and the reachable replica keeps its health.
		bad := runAnswerReplica(t, func(w http.ResponseWriter) {
			w.Header().Set("Content-Length", strconv.Itoa(len(want)+1))
			_, _ = w.Write(want)
		})
		checkReroutedRun(t, bad, body, want)
	})
	t.Run("sent longer than declared", func(t *testing.T) {
		// The whole body follows a Content-Length one byte short of it, so
		// the declared bytes are a cut body.
		bad := runAnswerReplica(t, func(w http.ResponseWriter) {
			conn, buf, err := http.NewResponseController(w).Hijack()
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			fmt.Fprintf(buf, "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", len(want)-1)
			_, _ = buf.Write(want)
			_ = buf.Flush()
		})
		checkReroutedRun(t, bad, body, want)
	})
}

// TestGatewayCanceledRequestLeavesNoMark: a client disconnect mid-attempt
// is not evidence about the replica. The attempt must not count as a
// replica failure, must not move the replica's breaker, and must not
// demote health — before the fix a canceled long point bumped failed_total
// exactly as a real replica error would.
func TestGatewayCanceledRequestLeavesNoMark(t *testing.T) {
	// The replica parks every /v1/run until the caller gives up, then cuts
	// the connection — a healthy-but-slow instance seen by a client that
	// hung up. Once "recovered", it serves normally (in-process service).
	svc := service.New(service.Options{Workers: 4, Validate: true})
	t.Cleanup(svc.Close)
	backing := svc.Handler()
	var recovered atomic.Bool
	done := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/run" && !recovered.Load() {
			select {
			case <-r.Context().Done():
			case <-done:
			}
			panic(http.ErrAbortHandler)
		}
		backing.ServeHTTP(w, r)
	}))
	t.Cleanup(slow.Close)
	t.Cleanup(func() { close(done) }) // unpark before slow.Close waits on handlers

	g, ts := startGateway(t, slow.URL)
	before := g.Counters()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	cfg := front.Config{Scale: bench.Tiny, Seed: 7, Point: exp.Point{Name: "des", Kind: swarm.Random, Cores: 1}}
	_, _, aerr := g.runPoint(ctx, cfg)
	if aerr == nil {
		t.Fatal("canceled point reported success")
	}
	if aerr.Code != api.CodeShuttingDown {
		t.Fatalf("canceled point reported %q, want %q", aerr.Code, api.CodeShuttingDown)
	}

	after := g.Counters()
	if after.Failed[slow.URL] != before.Failed[slow.URL] {
		t.Errorf("failed count moved %d -> %d on a client cancellation",
			before.Failed[slow.URL], after.Failed[slow.URL])
	}
	if after.BreakerState[slow.URL] != "closed" || after.BreakerOpens[slow.URL] != before.BreakerOpens[slow.URL] {
		t.Errorf("breaker %q after %d -> %d opens on a client cancellation, want closed and unmoved",
			after.BreakerState[slow.URL], before.BreakerOpens[slow.URL], after.BreakerOpens[slow.URL])
	}
	if !after.Healthy[slow.URL] {
		t.Error("replica demoted by a client cancellation")
	}
	if failed := promCounter(t, ts.URL, `swarmgate_replica_failed_total\{replica="`+regexp.QuoteMeta(slow.URL)+`"\}`); failed != 0 {
		t.Errorf("swarmgate_replica_failed_total = %v after a client cancellation, want 0", failed)
	}

	// A fresh, uncanceled point through the same gateway still routes and
	// completes.
	recovered.Store(true)
	body, _, aerr2 := g.runPoint(context.Background(), cfg)
	if aerr2 != nil {
		t.Fatalf("follow-up point after cancellation: %v", aerr2)
	}
	if err := front.CheckRun(cfg, body); err != nil {
		t.Errorf("follow-up point returned a malformed record: %v", err)
	}
}

// TestGatewayOverloadKeepsHomes: a retryable 429 "overloaded" is load, not
// sickness. It counts on the replica's breaker and retries elsewhere, but
// it must not move the shedding replica's home points: once the burst
// passes — before the breaker's threshold — the points homed there come
// back to it. Before the fix each rejection cut the replica's routing
// weight, so two of them sent its remaining points to the sibling.
func TestGatewayOverloadKeepsHomes(t *testing.T) {
	defer fault.Default.Reset()
	r1 := startChaosReplica(t, service.Options{})
	busy := startChaosReplica(t, service.Options{FaultScope: "busy"})
	// The seed homes the grid's first four points on the shedding replica.
	bodies := fig2RunBodies()[:4]
	var cfgs []front.Config
	for _, body := range bodies {
		cfgs = append(cfgs, runConfig(t, body))
	}
	g, ts := startChaosGateway(t, Options{
		Replicas:         []string{r1.URL, busy.URL},
		BreakerThreshold: 3,
		BreakerCooldown:  time.Minute,
		Seed:             homeSeed(t, 2, 1, cfgs...),
	})
	// Two rejections: fewer than the breaker's threshold, so it never
	// opens.
	fault.Default.Arm("busy.swarmd.overload", fault.Plan{Every: 1, Fail: true, Times: 2})

	first := servedBy(t, ts.URL, bodies)
	second := servedBy(t, ts.URL, bodies)
	for i, body := range bodies {
		// The first two points met the rejections and were served by the
		// sibling; every later request finds its home replica.
		if i < 2 && first[i] != r1.URL {
			t.Errorf("first pass, point %s: served by %s, want the sibling %s after a 429", body, first[i], r1.URL)
		}
		if i >= 2 && first[i] != busy.URL {
			t.Errorf("first pass, point %s: served by %s, want its home %s", body, first[i], busy.URL)
		}
		if second[i] != busy.URL {
			t.Errorf("second pass, point %s: served by %s, want its home %s", body, second[i], busy.URL)
		}
	}
	c := g.Counters()
	if c.Failed[busy.URL] != 2 {
		t.Errorf("shedding replica charged %d failed attempts, want the 2 rejections", c.Failed[busy.URL])
	}
	if c.BreakerOpens[busy.URL] != 0 || !c.Healthy[busy.URL] {
		t.Errorf("shedding replica: breaker opened %d times, healthy %v; want 0 and healthy",
			c.BreakerOpens[busy.URL], c.Healthy[busy.URL])
	}
}

// TestGatewayReusesReplicaConnections: a sweep keeps up to Concurrency
// points in flight on one replica, so the gateway must keep that many idle
// connections to it between bursts. A repeat of the same sweep, with every
// point again in flight at once, must then dial no new connection.
func TestGatewayReusesReplicaConnections(t *testing.T) {
	svc := service.New(service.Options{Workers: 4, Validate: true})
	var dials atomic.Int64
	rep := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/run" {
			time.Sleep(50 * time.Millisecond) // hold every point in flight at once
		}
		svc.Handler().ServeHTTP(w, r)
	}))
	rep.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	rep.Start()
	t.Cleanup(func() { rep.Close(); svc.Close() })
	_, gw := startChaosGateway(t, Options{Replicas: []string{rep.URL}, Concurrency: 8})

	first := postSweep(t, gw.URL, "json")
	after := dials.Load()
	if second := postSweep(t, gw.URL, "json"); !bytes.Equal(first, second) {
		t.Fatal("repeated sweep changed its bytes")
	}
	if n := dials.Load() - after; n != 0 {
		t.Errorf("repeated sweep dialed %d new replica connections (first sweep dialed %d), want 0", n, after)
	}
}
