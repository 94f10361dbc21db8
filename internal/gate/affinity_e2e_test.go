package gate

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"swarmhints/internal/service"
)

// heldScores is the adaptive balancer with its scores held at their
// starting values: success and failure drop the latency and failure
// signal, Pick is the adaptive balancer's own. The real scores drift with each point's
// latency, and a drift can move a key whose two weights lie close; holding
// them isolates the key-to-replica mapping the gateway builds. How the
// mapping follows the scores is the balancer unit tests' subject.
type heldScores struct{ *adaptive }

func (heldScores) success(int, time.Duration) {}
func (heldScores) failure(int)                {}

// TestGatewayRoutesPointsByKey: the gateway routes each point by its
// configuration key, so asking for the fig2-tiny grid twice sends every
// point to the same replica both times, and the second pass is served
// entirely from the replicas' LRUs — no engine run, no store read — with
// the grid split across both replicas rather than cached on each.
func TestGatewayRoutesPointsByKey(t *testing.T) {
	var svcs []*service.Service
	var urls []string
	for i := 0; i < 2; i++ {
		svc := service.New(service.Options{Workers: 2, Validate: true})
		ts := httptest.NewServer(svc.Handler())
		t.Cleanup(func() { ts.Close(); svc.Close() })
		svcs = append(svcs, svc)
		urls = append(urls, ts.URL)
	}
	g, err := New(Options{Replicas: urls, Retries: 3, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	g.bal = heldScores{newAdaptive(len(urls))}
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(func() { ts.Close(); g.Close() })

	var points []string
	for _, sched := range []string{"random", "stealing", "hints", "lbhints"} {
		for _, cores := range []int{1, 4} {
			points = append(points, fmt.Sprintf(`{"bench":"des","sched":%q,"cores":%d,"scale":"tiny"}`, sched, cores))
		}
	}
	pass := func() []string {
		served := make([]string, len(points))
		for i, body := range points {
			resp, b := post(t, ts.URL, "/v1/run", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("run %s: status %d: %s", body, resp.StatusCode, b)
			}
			served[i] = resp.Header.Get(replicaHeader)
		}
		return served
	}
	counters := func() (hits, misses uint64) {
		for _, s := range svcs {
			c := s.Counters()
			hits += c.Hits
			misses += c.Misses
		}
		return hits, misses
	}

	first := pass()
	hits0, misses0 := counters()
	if misses0 != uint64(len(points)) {
		t.Fatalf("first pass: %d engine runs, want one per point (%d)", misses0, len(points))
	}
	second := pass()
	hits1, misses1 := counters()
	for i := range points {
		if second[i] != first[i] {
			t.Errorf("point %s: served by %s, then by %s", points[i], first[i], second[i])
		}
	}
	if misses1 != misses0 || hits1-hits0 != uint64(len(points)) {
		t.Errorf("second pass: %d LRU hits and %d engine runs, want %d and 0",
			hits1-hits0, misses1-misses0, len(points))
	}
	perReplica := map[string]int{}
	for _, u := range first {
		perReplica[u]++
	}
	for _, u := range urls {
		if perReplica[u] == 0 {
			t.Errorf("replica %s served no point: %v", u, perReplica)
		}
	}
}
