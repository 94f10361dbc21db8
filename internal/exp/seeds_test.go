package exp

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"testing"

	"swarmhints/internal/bench"
	"swarmhints/internal/runner"
	"swarmhints/swarm"
)

func TestReplicaSeeds(t *testing.T) {
	if got := ReplicaSeeds(42, 1); len(got) != 1 || got[0] != 42 {
		t.Errorf("n=1 must run the base seed itself, got %v", got)
	}
	if got := ReplicaSeeds(42, 0); len(got) != 1 || got[0] != 42 {
		t.Errorf("n=0 must degrade to the base seed, got %v", got)
	}
	seeds := ReplicaSeeds(42, 8)
	if len(seeds) != 8 {
		t.Fatalf("got %d seeds, want 8", len(seeds))
	}
	uniq := map[int64]bool{}
	for r, s := range seeds {
		if s != runner.DeriveSeed(42, r) {
			t.Errorf("replica %d seed %d, want DeriveSeed(42,%d)=%d", r, s, r, runner.DeriveSeed(42, r))
		}
		uniq[s] = true
	}
	if len(uniq) != 8 {
		t.Errorf("derived seeds collide: %v", seeds)
	}
}

// runSeeds runs one SeedRun through RunSeeds on parallel workers and
// returns its per-replica results and their fixed-order merge.
func runSeeds(t *testing.T, sr SeedRun, parallel int) (*swarm.Stats, []*swarm.Stats) {
	t.Helper()
	per, err := RunSeeds(context.Background(), []SeedRun{sr}, runner.Options{Parallel: parallel})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := swarm.MergeStats(per[0])
	if err != nil {
		t.Fatal(err)
	}
	return merged, per[0]
}

// seedMergeJSON runs one point as a seeds-replica fan-out on parallel
// workers and returns the merged snapshot's JSON bytes.
func seedMergeJSON(t *testing.T, seeds, parallel int) []byte {
	t.Helper()
	sr := SeedRun{
		Point:    Point{Name: "des", Kind: swarm.LBHints, Cores: 4},
		Scale:    bench.Tiny,
		BaseSeed: 7,
		Seeds:    seeds,
		Validate: true,
	}
	merged, per := runSeeds(t, sr, parallel)
	if len(per) != seeds {
		t.Fatalf("fan-out returned %d per-seed results, want %d", len(per), seeds)
	}
	b, err := json.Marshal(merged.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSeedMergeDifferentialMatrix is the merge-determinism acceptance
// test: the merged aggregate of an N-seed fan-out is byte-identical for
// every worker count, including a rerun of the sequential single-engine
// reference (Parallel=1). Pinned by name in the CI race job next to
// TestCalqDifferentialMatrix.
func TestSeedMergeDifferentialMatrix(t *testing.T) {
	const seeds = 8
	want := seedMergeJSON(t, seeds, 1) // sequential reference
	for _, parallel := range []int{1, 2, 4, 8} {
		if got := seedMergeJSON(t, seeds, parallel); !bytes.Equal(got, want) {
			t.Errorf("parallel=%d: merged snapshot differs from sequential reference", parallel)
		}
	}
}

// TestSeedMergeRoundTrip: a merged aggregate survives the snapshot →
// StatsFromSnapshot → snapshot round trip byte-identically — the property
// that makes store-served and gateway-reassembled merged records
// indistinguishable from freshly computed ones.
func TestSeedMergeRoundTrip(t *testing.T) {
	sr := SeedRun{
		Point:    Point{Name: "des", Kind: swarm.Hints, Cores: 4},
		Scale:    bench.Tiny,
		BaseSeed: 1,
		Seeds:    4,
		Validate: true,
	}
	merged, _ := runSeeds(t, sr, 0)
	sn := merged.Snapshot()
	if sn.SeedSummary == nil || sn.SeedSummary.Seeds != 4 {
		t.Fatalf("merged snapshot SeedSummary = %+v, want Seeds=4", sn.SeedSummary)
	}
	direct, err := json.Marshal(sn)
	if err != nil {
		t.Fatal(err)
	}
	rebuilt, err := json.Marshal(swarm.StatsFromSnapshot(sn).Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(direct, rebuilt) {
		t.Error("merged snapshot changed through the StatsFromSnapshot round trip")
	}
}

// TestSeedReplicaMatchesPlainRun: seed replica r of a multi-seed fan-out
// computes exactly what a plain single-seed run at DeriveSeed(base, r)
// computes — the property that lets per-seed records share store keys with
// ordinary runs.
func TestSeedReplicaMatchesPlainRun(t *testing.T) {
	p := Point{Name: "des", Kind: swarm.Hints, Cores: 4}
	sr := SeedRun{Point: p, Scale: bench.Tiny, BaseSeed: 7, Seeds: 3, Validate: true}
	_, per := runSeeds(t, sr, 0)
	for r, seed := range ReplicaSeeds(7, 3) {
		plain, err := RunPoint(p, bench.Tiny, seed, true)
		if err != nil {
			t.Fatal(err)
		}
		pb, _ := json.Marshal(plain.Snapshot())
		rb, _ := json.Marshal(per[r].Snapshot())
		if !bytes.Equal(pb, rb) {
			t.Errorf("replica %d (seed %d) differs from the plain run at that seed", r, seed)
		}
	}
}

// TestRunnerSeedsExport: the Options-level path — a Runner with Seeds set
// exports v2-stamped records whose bytes are identical at any Parallel
// value, whether its points were primed or each read through Runner.Run's
// cache-miss path.
func TestRunnerSeedsExport(t *testing.T) {
	points := []Point{
		{Name: "des", Kind: swarm.Random, Cores: 4},
		{Name: "des", Kind: swarm.Hints, Cores: 4},
	}
	run := func(parallel int, prime bool) []byte {
		o := DefaultOptions(bench.Tiny)
		o.Cores = []int{4}
		o.Seeds = 3
		o.Parallel = parallel
		r := NewRunner(o)
		ctx := context.Background()
		if prime {
			if err := r.Prime(ctx, points); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, p := range points {
				if _, err := r.Run(ctx, p.Name, p.Kind, p.Cores, p.Profile); err != nil {
					t.Fatal(err)
				}
			}
		}
		var buf bytes.Buffer
		if err := r.Export().WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := run(1, true)
	if !bytes.Contains(want, []byte(`"seedSummary"`)) || !bytes.Contains(want, []byte("swarmhints.metrics.v2")) {
		t.Fatal("multi-seed export lacks the v2 schema stamp or seedSummary block")
	}
	for _, tc := range []struct {
		parallel int
		prime    bool
	}{{4, true}, {2, true}, {8, true}, {1, false}, {4, false}} {
		if got := run(tc.parallel, tc.prime); !bytes.Equal(got, want) {
			t.Errorf("Parallel=%d prime=%v: export differs from sequential reference", tc.parallel, tc.prime)
		}
	}
}

// TestRunSeedsNamesFailedReplica: a failing replica of a multi-seed run
// names itself in the returned error, which still wraps the cause, and the
// first failure in (run, replica) order wins at any worker count. A
// single-seed run's error is returned as the executor gave it.
func TestRunSeedsNamesFailedReplica(t *testing.T) {
	cause := errors.New("boom")
	seeds := ReplicaSeeds(7, 4)
	exec := func(_ context.Context, seed int64, _ Point) (*swarm.Stats, error) {
		if seed == seeds[1] || seed == seeds[3] || seed == 7 {
			return nil, cause
		}
		return &swarm.Stats{}, nil
	}
	p := Point{Name: "des", Kind: swarm.Hints, Cores: 4}
	for _, parallel := range []int{1, 4} {
		_, err := RunSeeds(context.Background(), []SeedRun{{Point: p, BaseSeed: 7, Seeds: 4, Exec: exec}}, runner.Options{Parallel: parallel})
		want := fmt.Sprintf("seed replica 1 (seed %d): boom", seeds[1])
		if !errors.Is(err, cause) || err.Error() != want {
			t.Errorf("parallel=%d: err = %v, want %q wrapping the cause", parallel, err, want)
		}
	}
	_, err := RunSeeds(context.Background(), []SeedRun{{Point: p, BaseSeed: 7, Seeds: 1, Exec: exec}}, runner.Options{})
	if err != cause {
		t.Errorf("single-seed err = %v, want the executor's error unwrapped", err)
	}
}
