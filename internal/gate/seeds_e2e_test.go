package gate

import (
	"bytes"
	"context"
	"net/http"
	"testing"

	"swarmhints/internal/bench"
	"swarmhints/internal/exp"
	"swarmhints/swarm"
)

// TestGatewaySeedsFanout is the seeds acceptance criterion: a 64-seed
// configuration sharded across a 4-replica fleet answers with exactly the
// bytes of (a) a single swarmd serving the same seeds request and (b) the
// sequential single-engine fan-out (one shard, one worker) — merging is
// order-fixed, so how the seeds were sharded never shows in the output.
func TestGatewaySeedsFanout(t *testing.T) {
	const seeds = 64
	body := `{"bench":"des","sched":"lbhints","cores":4,"scale":"tiny","seeds":64}`

	single := startReplica(t, "")
	resp, want := post(t, single.URL, "/v1/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single swarmd seeds run status %d: %s", resp.StatusCode, want)
	}

	dir := t.TempDir()
	r1, r2, r3, r4 := startReplica(t, dir), startReplica(t, dir), startReplica(t, dir), startReplica(t, dir)
	// Under the default seed each replica is home to between 10 and 20 of
	// the 64 seed points, so every replica serves some.
	g, ts := startGateway(t, r1.URL, r2.URL, r3.URL, r4.URL)
	resp, got := post(t, ts.URL, "/v1/run", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("gateway seeds run status %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Error("gateway-merged seeds response differs from a single swarmd's")
	}
	if !bytes.Contains(got, []byte("swarmhints.metrics.v2")) || !bytes.Contains(got, []byte(`"seedSummary"`)) {
		t.Error("seeds response lacks the v2 stamp or seedSummary block")
	}

	// Sequential single-engine reference, exported exactly as the servers
	// export a run response.
	p := exp.Point{Name: "des", Kind: swarm.LBHints, Cores: 4}
	sr := exp.SeedRun{
		Point: p, Scale: bench.Tiny, BaseSeed: 7,
		Seeds: seeds, Shards: 1, Parallel: 1, Validate: true,
	}
	merged, _, err := sr.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var ref bytes.Buffer
	rs := exp.ExportSet([]exp.Point{p}, bench.Tiny, 7,
		func(exp.Point) *swarm.Stats { return merged })
	if err := rs.WriteJSON(&ref); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref.Bytes()) {
		t.Error("gateway-merged seeds response differs from the sequential single-engine fan-out")
	}

	// The fan-out really was sharded: every replica served seed points.
	c := g.Counters()
	if c.Points != seeds {
		t.Errorf("gateway served %d points for the fan-out, want %d", c.Points, seeds)
	}
	for _, u := range []string{r1.URL, r2.URL, r3.URL, r4.URL} {
		if c.Routed[u] == 0 {
			t.Errorf("replica %s received no seed points", u)
		}
	}
}
