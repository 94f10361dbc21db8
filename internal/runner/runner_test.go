package runner

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"swarmhints/internal/bench"
	"swarmhints/swarm"
)

// TestSweepOrderedAggregation checks that results land at their job's index
// with the job's derived seed, regardless of completion order.
func TestSweepOrderedAggregation(t *testing.T) {
	const n = 32
	jobs := make([]Job, n)
	for i := range jobs {
		i := i
		jobs[i] = Job{
			Name: "job",
			Run: func(seed int64) (*swarm.Stats, error) {
				// Encode identity in the stats so aggregation order is
				// observable.
				return &swarm.Stats{Cycles: uint64(i), Cores: int(seed % 1000)}, nil
			},
		}
	}
	results := Sweep(context.Background(), jobs, Options{Parallel: 4, Seed: 99})
	if len(results) != n {
		t.Fatalf("got %d results, want %d", len(results), n)
	}
	for i, res := range results {
		if res.Index != i {
			t.Errorf("result %d has Index %d", i, res.Index)
		}
		if res.Err != nil {
			t.Errorf("result %d: unexpected error %v", i, res.Err)
		}
		if res.Stats.Cycles != uint64(i) {
			t.Errorf("result %d carries stats of job %d", i, res.Stats.Cycles)
		}
		if res.Seed != DeriveSeed(99, i) {
			t.Errorf("result %d has seed %d, want DeriveSeed(99,%d)=%d", i, res.Seed, i, DeriveSeed(99, i))
		}
	}
}

// sweepJobs builds a real-simulation sweep: bfs at Tiny scale across core
// counts, each run built from the runner's derived seed so per-run seeding
// itself is under test.
func sweepJobs(t *testing.T) []Job {
	t.Helper()
	coreSweep := []int{1, 4, 16, 4, 1} // duplicates: distinct derived seeds must differ
	jobs := make([]Job, len(coreSweep))
	for i, cores := range coreSweep {
		cores := cores
		jobs[i] = Job{
			Name: "bfs",
			Run: func(seed int64) (*swarm.Stats, error) {
				inst, err := bench.Build("bfs", bench.Tiny, seed)
				if err != nil {
					return nil, err
				}
				cfg := swarm.ScaledConfig().WithCores(cores)
				cfg.Scheduler = swarm.Hints
				st, err := inst.Prog.Run(cfg)
				if err != nil {
					return nil, err
				}
				if err := inst.Validate(); err != nil {
					return nil, err
				}
				return st, nil
			},
		}
	}
	return jobs
}

// TestSweepDeterministicAcrossParallelism is the core contract: the same
// sweep seed produces identical aggregated statistics for every worker
// count, because seeds derive from run indices and runs share no state.
func TestSweepDeterministicAcrossParallelism(t *testing.T) {
	jobs := sweepJobs(t)
	var baseline []Result
	for _, parallel := range []int{1, 2, 8, 0} {
		results := Sweep(context.Background(), jobs, Options{Parallel: parallel, Seed: 7})
		if err := FirstErr(results); err != nil {
			t.Fatalf("parallel=%d: %v", parallel, err)
		}
		if baseline == nil {
			baseline = results
			continue
		}
		if !reflect.DeepEqual(results, baseline) {
			t.Errorf("parallel=%d: results differ from parallel=1 baseline", parallel)
		}
	}
	// Same config, different run index ⇒ different derived seed, so
	// duplicate sweep points are genuine replicas, not clones.
	if baseline[0].Seed == baseline[4].Seed {
		t.Error("duplicate sweep points received identical seeds")
	}
}

// TestSweepSeedSensitivity checks a different sweep seed actually changes
// the derived per-run seeds (and with them the workloads).
func TestSweepSeedSensitivity(t *testing.T) {
	jobs := sweepJobs(t)[:2]
	a := Sweep(context.Background(), jobs, Options{Parallel: 2, Seed: 7})
	b := Sweep(context.Background(), jobs, Options{Parallel: 2, Seed: 8})
	if a[0].Seed == b[0].Seed {
		t.Errorf("sweep seeds 7 and 8 derived the same run seed %d", a[0].Seed)
	}
}

// TestSweepPanicIsolation checks that a panicking job surfaces as an error
// with a stack trace while every other job still completes.
func TestSweepPanicIsolation(t *testing.T) {
	ok := func(seed int64) (*swarm.Stats, error) { return &swarm.Stats{Cycles: 1}, nil }
	jobs := []Job{
		{Name: "good-0", Run: ok},
		{Name: "boom", Run: func(int64) (*swarm.Stats, error) { panic("kaboom") }},
		{Name: "good-2", Run: ok},
		{Name: "fails", Run: func(int64) (*swarm.Stats, error) { return nil, errors.New("plain failure") }},
	}
	results := Sweep(context.Background(), jobs, Options{Parallel: 2, Seed: 1})
	if results[0].Err != nil || results[2].Err != nil {
		t.Fatalf("healthy jobs failed: %v / %v", results[0].Err, results[2].Err)
	}
	if results[1].Err == nil || results[1].Stats != nil {
		t.Fatalf("panicking job did not error: %+v", results[1])
	}
	if msg := results[1].Err.Error(); !strings.Contains(msg, "kaboom") || !strings.Contains(msg, "boom") {
		t.Errorf("panic error lacks context: %q", msg)
	}
	if err := FirstErr(results); err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Errorf("FirstErr should surface job 1's panic, got %v", err)
	}
}

// TestSweepOnResult checks the completion callback fires once per job.
func TestSweepOnResult(t *testing.T) {
	jobs := sweepJobs(t)[:3]
	seen := make(map[int]int)
	results := Sweep(context.Background(), jobs, Options{Parallel: 3, Seed: 7, OnResult: func(r Result) {
		seen[r.Index]++ // serialized by the runner; no lock needed here
	}})
	if err := FirstErr(results); err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		if seen[i] != 1 {
			t.Errorf("OnResult fired %d times for job %d, want 1", seen[i], i)
		}
	}
}

func TestSweepEmpty(t *testing.T) {
	if got := Sweep(context.Background(), nil, Options{Parallel: 4}); len(got) != 0 {
		t.Fatalf("Sweep(nil) returned %d results", len(got))
	}
}

// TestDeriveSeed pins the derivation: pure, index-sensitive, sweep-seed
// sensitive. A change here silently reshuffles every recorded sweep.
func TestDeriveSeed(t *testing.T) {
	if DeriveSeed(7, 0) != DeriveSeed(7, 0) {
		t.Error("DeriveSeed is not pure")
	}
	seen := make(map[int64]int)
	for i := 0; i < 1000; i++ {
		s := DeriveSeed(7, i)
		if j, dup := seen[s]; dup {
			t.Fatalf("indices %d and %d collide on seed %d", j, i, s)
		}
		seen[s] = i
	}
	if DeriveSeed(7, 3) == DeriveSeed(8, 3) {
		t.Error("sweep seed does not influence derived seed")
	}
}

// TestSweepCancellationStopsWork is the cancellation contract: once ctx is
// canceled, in-flight jobs finish (a simulation run is not interruptible)
// but no new job starts, canceled jobs carry the cancellation as an error
// with no statistics, OnResult never fires for them, and the worker
// goroutines all exit — an abandoned sweep cannot leak workers or emit
// partial results.
func TestSweepCancellationStopsWork(t *testing.T) {
	const (
		n       = 40
		workers = 4
	)
	baseline := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var started atomic.Int32
	release := make(chan struct{})
	jobs := make([]Job, n)
	for i := range jobs {
		jobs[i] = Job{
			Name: fmt.Sprintf("job-%d", i),
			Run: func(int64) (*swarm.Stats, error) {
				started.Add(1)
				<-release
				return &swarm.Stats{Cycles: 1}, nil
			},
		}
	}
	var emitted atomic.Int32
	done := make(chan []Result, 1)
	go func() {
		done <- Sweep(ctx, jobs, Options{Parallel: workers, Seed: 1, OnResult: func(Result) {
			emitted.Add(1)
		}})
	}()

	// Wait until every worker is blocked inside a job, then cancel. The
	// release happens after cancel, so workers observe the canceled context
	// before picking up their next job.
	for started.Load() < workers {
		time.Sleep(time.Millisecond)
	}
	cancel()
	close(release)
	results := <-done

	completed, canceled := 0, 0
	for i, res := range results {
		switch {
		case res.Err == nil:
			completed++
			if res.Stats == nil {
				t.Errorf("completed job %d has no stats", i)
			}
		default:
			canceled++
			if !errors.Is(res.Err, context.Canceled) {
				t.Errorf("job %d error is not the cancellation: %v", i, res.Err)
			}
			if res.Stats != nil {
				t.Errorf("canceled job %d carries partial stats", i)
			}
			if res.Seed != DeriveSeed(1, i) {
				t.Errorf("canceled job %d lost its derived seed", i)
			}
		}
	}
	if completed != workers || canceled != n-workers {
		t.Errorf("completed=%d canceled=%d, want %d and %d", completed, canceled, workers, n-workers)
	}
	if got := int(emitted.Load()); got != workers {
		t.Errorf("OnResult fired %d times, want %d (never for canceled jobs)", got, workers)
	}
	// All worker goroutines must exit: poll the goroutine count back down to
	// the pre-sweep baseline (other tests' leftovers make an exact equality
	// too strict only in the upward direction).
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > baseline {
		t.Errorf("goroutines leaked: %d running, baseline %d", got, baseline)
	}
}

// TestSweepPreCanceled checks a sweep under an already-canceled context
// runs nothing at all.
func TestSweepPreCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ran := false
	jobs := []Job{{Name: "never", Run: func(int64) (*swarm.Stats, error) {
		ran = true
		return &swarm.Stats{}, nil
	}}}
	results := Sweep(ctx, jobs, Options{Parallel: 2, Seed: 1, OnResult: func(Result) {
		t.Error("OnResult fired under a pre-canceled context")
	}})
	if ran {
		t.Error("job ran under a pre-canceled context")
	}
	if len(results) != 1 || !errors.Is(results[0].Err, context.Canceled) {
		t.Fatalf("pre-canceled sweep results malformed: %+v", results)
	}
	if err := FirstErr(results); !errors.Is(err, context.Canceled) {
		t.Errorf("FirstErr should surface the cancellation, got %v", err)
	}
}
