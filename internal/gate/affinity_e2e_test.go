package gate

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"swarmhints/internal/service"
)

// fig2RunBodies is the fig2-tiny grid as /v1/run bodies, in canonical
// order.
func fig2RunBodies() []string {
	var bodies []string
	for _, sched := range []string{"random", "stealing", "hints", "lbhints"} {
		for _, cores := range []int{1, 4} {
			bodies = append(bodies, fmt.Sprintf(`{"bench":"des","sched":%q,"cores":%d,"scale":"tiny"}`, sched, cores))
		}
	}
	return bodies
}

// servedBy posts each body to the gateway at url as a /v1/run, one at a
// time, and returns the replica that served each.
func servedBy(t *testing.T, url string, bodies []string) []string {
	t.Helper()
	served := make([]string, len(bodies))
	for i, body := range bodies {
		resp, b := post(t, url, "/v1/run", body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run %s: status %d: %s", body, resp.StatusCode, b)
		}
		served[i] = resp.Header.Get(replicaHeader)
	}
	return served
}

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
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(func() { ts.Close(); g.Close() })

	points := fig2RunBodies()
	counters := func() (hits, misses uint64) {
		for _, s := range svcs {
			c := s.Counters()
			hits += c.Hits
			misses += c.Misses
		}
		return hits, misses
	}

	first := servedBy(t, ts.URL, points)
	hits0, misses0 := counters()
	if misses0 != uint64(len(points)) {
		t.Fatalf("first pass: %d engine runs, want one per point (%d)", misses0, len(points))
	}
	second := servedBy(t, ts.URL, points)
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
