// Trace end-to-end suite: with observability enabled, a gateway sweep
// under an injected swarmd.run.slow fault must leave a trace in the span
// ring that tells the whole story — the timed-out attempt on the slow
// replica and its retry landing on a different one — retrievable through
// the same X-Swarm-Trace header the response echoes. The in-process
// replicas share obs.Default with the gateway, so the gateway's client
// spans and the replicas' server spans land in one ring, exactly like one
// machine running the whole fleet.
package gate

import (
	"bytes"
	"net/http"
	"strings"
	"testing"
	"time"

	"swarmhints/internal/fault"
	"swarmhints/internal/obs"
	"swarmhints/internal/service"
	"swarmhints/swarm/api"
)

// withObs enables tracing and histograms for one test and restores the
// disabled default afterwards.
func withObs(t *testing.T) {
	t.Helper()
	obs.SetEnabled(true)
	t.Cleanup(func() { obs.SetEnabled(false) })
}

// TestGatewayTraceRetryAcrossReplicas: one of two replicas answers every
// run 30s late; the gateway's 2s per-attempt timeout converts that into a
// retryable failure and the retry must hit the other replica. The sweep's
// bytes stay identical to a single swarmd's, and the trace named by the
// response's X-Swarm-Trace header shows both attempts: a gate.attempt
// span with outcome=failure on the slow replica and a gate.attempt span
// with retry=true, outcome=retry for the same point on the other one,
// plus the replicas' own server-side swarmd spans in the same trace.
func TestGatewayTraceRetryAcrossReplicas(t *testing.T) {
	withObs(t)
	defer fault.Default.Reset()

	single := startReplica(t, "")
	want := postSweep(t, single.URL, "ndjson")

	slow := startChaosReplica(t, service.Options{FaultScope: "laggard"})
	fast := startChaosReplica(t, service.Options{})
	// The injected latency must overshoot the attempt timeout on any
	// machine speed, and the timeout must dwarf a healthy tiny-scale point
	// even under the race detector.
	fault.Default.Arm("laggard.swarmd.run.slow",
		fault.Plan{Every: 1, Latency: 30 * time.Second})
	// The seed homes the grid's first two points on the slow replica, so
	// their first attempts time out there.
	_, ts := startChaosGateway(t, Options{
		Replicas:     []string{slow.URL, fast.URL},
		PointTimeout: 2 * time.Second,
		Seed:         homeSeed(t, 2, 0, fig2Configs(t)[:2]...),
	})

	resp, got := post(t, ts.URL, "/v1/sweep", strings.Replace(fig2SweepBody, "%s", "ndjson", 1))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Error("traced sweep over a slow replica differs from a single swarmd's bytes")
	}
	decodeStream(t, got)

	// The response names its trace; the ring must hold the story.
	header := resp.Header.Get(api.TraceHeader)
	trace, _, ok := obs.ParseHeader(header)
	if !ok {
		t.Fatalf("sweep response %s header = %q, want a parsable trace", api.TraceHeader, header)
	}
	spans := obs.Default.TraceSpans(trace)
	if len(spans) == 0 {
		t.Fatal("no spans retained for the sweep's trace")
	}

	// Index the gate.attempt spans: failures on the slow replica, retry
	// wins elsewhere, correlated per point by the point attribute.
	failedPoints := map[string]string{} // point -> replica that failed it
	retryPoints := map[string]string{}  // point -> replica that answered the retry
	serverSpans := 0
	for _, sp := range spans {
		switch sp.Name() {
		case "gate.attempt":
			switch sp.Attr("outcome") {
			case "failure":
				failedPoints[sp.Attr("point")] = sp.Attr("replica")
			case "retry":
				if sp.Attr("retry") != "true" {
					t.Errorf("outcome=retry span lacks retry=true: point %s", sp.Attr("point"))
				}
				retryPoints[sp.Attr("point")] = sp.Attr("replica")
			}
		case "swarmd.run":
			serverSpans++
		}
	}
	if len(failedPoints) == 0 {
		t.Fatal("no failed gate.attempt span recorded against the slow replica")
	}
	if serverSpans == 0 {
		t.Error("no server-side swarmd.run spans joined the trace (header propagation broken)")
	}
	rerouted := 0
	for point, failedOn := range failedPoints {
		retriedOn, ok := retryPoints[point]
		if !ok {
			// This point's failure was absorbed some other way (e.g. its
			// retry lost a later race); the invariant needs one witness.
			continue
		}
		if failedOn != slow.URL {
			t.Errorf("point %s failed on %s, want the slow replica %s", point, failedOn, slow.URL)
		}
		if retriedOn == failedOn {
			t.Errorf("point %s retried on the same replica %s that failed it", point, retriedOn)
		}
		if retriedOn != fast.URL {
			t.Errorf("point %s retried on %s, want the healthy replica %s", point, retriedOn, fast.URL)
		}
		rerouted++
	}
	if rerouted == 0 {
		t.Error("no point shows the failure→retry hop between replicas in its trace")
	}

	// The trace is fetchable over HTTP by the ID the response handed out.
	tresp, body := get(t, ts.URL+"/debug/traces/"+trace.String())
	if tresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/traces/{id} = %d: %s", tresp.StatusCode, body)
	}
	if !bytes.Contains(body, []byte(`"gate.attempt"`)) || !bytes.Contains(body, []byte(trace.String())) {
		t.Error("debug trace body lacks the trace's attempt spans")
	}
}

// get is post's GET sibling.
func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}
