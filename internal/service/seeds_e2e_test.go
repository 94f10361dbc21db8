package service

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"strings"
	"testing"

	"swarmhints/internal/bench"
	"swarmhints/internal/exp"
	"swarmhints/internal/runner"
	"swarmhints/internal/store"
	"swarmhints/swarm"
)

// seedsReference is the sequential single-engine oracle for a seeds run:
// the fan-out executed on one worker, exported exactly as handleRun
// exports it.
func seedsReference(t *testing.T, p exp.Point, seed int64, seeds int) []byte {
	t.Helper()
	sr := exp.SeedRun{Point: p, Scale: bench.Tiny, BaseSeed: seed, Seeds: seeds, Validate: true}
	per, err := exp.RunSeeds(context.Background(), []exp.SeedRun{sr}, runner.Options{Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := swarm.MergeStats(per[0])
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	rs := exp.ExportSet([]exp.Point{p}, bench.Tiny, seed,
		func(exp.Point) *swarm.Stats { return merged })
	if err := rs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postRun(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/run", "application/json", strings.NewReader(body))
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

// TestRunSeedsEndpoint: a seeds > 1 run request answers with the merged
// v2 record, byte-identical to the sequential single-engine fan-out, and
// writes every seed replica through to the store under its ordinary
// per-seed key — so a repeat with more seeds only executes the new ones.
func TestRunSeedsEndpoint(t *testing.T) {
	dir := t.TempDir()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := startServer(t, Options{Workers: 4, Validate: true, Store: st})
	p := exp.Point{Name: "des", Kind: swarm.Hints, Cores: 4}

	resp, got := postRun(t, ts.URL, `{"bench":"des","sched":"hints","cores":4,"scale":"tiny","seeds":4}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seeds run status %d: %s", resp.StatusCode, got)
	}
	if src := resp.Header.Get("X-Swarmd-Source"); src != string(SourceMerged) {
		t.Errorf("X-Swarmd-Source = %q, want %q", src, SourceMerged)
	}
	if !bytes.Contains(got, []byte("swarmhints.metrics.v2")) || !bytes.Contains(got, []byte(`"seedSummary"`)) {
		t.Fatalf("seeds response lacks v2 stamp or seedSummary:\n%s", got)
	}
	if want := seedsReference(t, p, 7, 4); !bytes.Equal(got, want) {
		t.Error("seeds response differs from the sequential single-engine reference")
	}

	// Every seed replica is on disk under its ordinary per-seed key.
	for _, seed := range exp.ReplicaSeeds(7, 4) {
		if _, ok := st.GetSnapshot(exp.ConfigKey(bench.Tiny, seed, p)); !ok {
			t.Errorf("seed %d not written through to the store", seed)
		}
	}

	// Re-asking with more seeds re-merges incrementally: the 4 cached
	// replicas come from the store, only the 2 new ones execute.
	wBefore := st.Counters().Writes
	resp, got = postRun(t, ts.URL, `{"bench":"des","sched":"hints","cores":4,"scale":"tiny","seeds":6}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seeds=6 run status %d: %s", resp.StatusCode, got)
	}
	if want := seedsReference(t, p, 7, 6); !bytes.Equal(got, want) {
		t.Error("seeds=6 response differs from the sequential reference")
	}
	if grew := st.Counters().Writes - wBefore; grew != 2 {
		t.Errorf("seeds=6 after seeds=4 wrote %d records, want exactly the 2 new seeds", grew)
	}

	// seeds <= 1 stays a plain v1 single-seed run.
	resp, got = postRun(t, ts.URL, `{"bench":"des","sched":"hints","cores":4,"scale":"tiny","seeds":1}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seeds=1 run status %d: %s", resp.StatusCode, got)
	}
	if bytes.Contains(got, []byte(`"seedSummary"`)) || !bytes.Contains(got, []byte("swarmhints.metrics.v1")) {
		t.Error("seeds=1 response must stay schema v1 without a seedSummary block")
	}

	// Out-of-range fan-outs are rejected up front.
	resp, got = postRun(t, ts.URL, `{"bench":"des","sched":"hints","cores":4,"scale":"tiny","seeds":99999}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("seeds above MaxSeeds: status %d (%s), want 400", resp.StatusCode, got)
	}
}
