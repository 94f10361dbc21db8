// Package runner is the parallel experiment-sweep subsystem: it executes
// many independent simulation runs concurrently across host goroutines with
// bounded concurrency, deterministic per-run seeding, per-run panic
// isolation, and ordered result aggregation.
//
// The simulator itself (internal/sim) is single-threaded and deterministic:
// one run touches no package-level mutable state, so independent runs can
// proceed on independent goroutines with no synchronization beyond the
// worker pool. The runner exploits that: a sweep of R runs on a P-way pool
// produces byte-identical aggregated results for every value of P, because
// each run's seed is derived from (sweep seed, run index) — never from a
// shared RNG — and results land in a slice indexed by run, not in arrival
// order.
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"swarmhints/internal/hashutil"
	"swarmhints/internal/obs"
	"swarmhints/swarm"
)

// Job is one simulation run in a sweep.
type Job struct {
	// Name labels the job in results and error messages.
	Name string
	// Run executes the job and returns its statistics. The seed argument is
	// the job's derived seed (DeriveSeed of the sweep seed and the job
	// index); jobs that fix their own seed — e.g. paper experiments, which
	// deliberately reuse one workload seed across every configuration — may
	// ignore it.
	Run func(seed int64) (*swarm.Stats, error)
}

// Options configures a sweep.
type Options struct {
	// Parallel bounds the number of worker goroutines. Zero or negative
	// means GOMAXPROCS.
	Parallel int
	// Seed is the sweep seed from which every job's seed is derived.
	Seed int64
	// OnResult, when non-nil, is called once per completed job, serialized
	// under a lock (so it may write to shared output). Jobs complete in
	// arbitrary order; use Result.Index to correlate.
	OnResult func(Result)
}

// Result is the outcome of one job, delivered at the job's index in the
// slice Sweep returns regardless of completion order.
type Result struct {
	Index int
	Name  string
	Seed  int64 // derived seed the job received
	Stats *swarm.Stats
	Err   error
}

// DeriveSeed returns the seed for run index i of a sweep seeded with
// sweepSeed. It is a pure function of its arguments (SplitMix64 over the
// pair), so re-running any single point of a sweep reproduces it exactly,
// and no RNG state is shared between workers.
func DeriveSeed(sweepSeed int64, index int) int64 {
	return int64(hashutil.SplitMix64(hashutil.SplitMix64(uint64(sweepSeed)) + uint64(index)))
}

// Sweep executes jobs on a bounded worker pool and returns one Result per
// job, in job order. A job that panics is isolated: its Result carries the
// panic as an error (with stack) and every other job still runs.
//
// Cancellation is checked at job boundaries: once ctx is done, workers stop
// starting new jobs and every not-yet-started job's Result carries ctx's
// error instead of statistics. Jobs already in flight run to completion (a
// simulation run is not interruptible), but an abandoned sweep stops
// consuming workers after at most one job per worker. OnResult never fires
// for a canceled job, so partial results are never emitted downstream.
func Sweep(ctx context.Context, jobs []Job, opt Options) []Result {
	results := make([]Result, len(jobs))
	if len(jobs) == 0 {
		return results
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers := opt.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(jobs) {
		workers = len(jobs)
	}

	var (
		wg         sync.WaitGroup
		resultLock sync.Mutex
		indices    = make(chan int)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range indices {
				if err := ctx.Err(); err != nil {
					// Canceled before start: record the cancellation and skip
					// both the run and the OnResult callback.
					results[i] = Result{
						Index: i, Name: jobs[i].Name, Seed: DeriveSeed(opt.Seed, i),
						Err: fmt.Errorf("runner: job %d (%s) canceled before start: %w", i, jobs[i].Name, err),
					}
					continue
				}
				results[i] = runOne(ctx, jobs[i], i, DeriveSeed(opt.Seed, i))
				if opt.OnResult != nil {
					resultLock.Lock()
					opt.OnResult(results[i])
					resultLock.Unlock()
				}
			}
		}()
	}
	for i := range jobs {
		indices <- i
	}
	close(indices)
	wg.Wait()
	return results
}

// runOne executes a single job, converting a panic into an error so one
// broken configuration cannot take down the rest of the sweep. Each job
// is a span in the sweep's trace (ctx carries the caller's span through
// Sweep), tagged with the job name, index, derived seed, and outcome.
func runOne(ctx context.Context, j Job, index int, seed int64) (res Result) {
	res = Result{Index: index, Name: j.Name, Seed: seed}
	_, sp := obs.StartSpan(ctx, "runner.job")
	sp.SetAttr("job", j.Name)
	sp.SetAttrInt("index", int64(index))
	sp.SetAttrInt("seed", seed)
	// Registered before the recover defer, so it runs after it (LIFO) and
	// sees the panic already converted into res.Err.
	defer func() {
		if res.Err != nil {
			sp.SetAttr("outcome", "error")
		} else {
			sp.SetAttr("outcome", "ok")
		}
		sp.End()
	}()
	defer func() {
		if r := recover(); r != nil {
			res.Stats = nil
			res.Err = fmt.Errorf("runner: job %d (%s) panicked: %v\n%s", index, j.Name, r, debug.Stack())
		}
	}()
	res.Stats, res.Err = j.Run(seed)
	return res
}

// FirstErr returns the error of the lowest-index failed result, or nil.
// Because results are ordered by job, the reported failure is deterministic
// regardless of parallelism.
func FirstErr(results []Result) error {
	for _, r := range results {
		if r.Err != nil {
			return r.Err
		}
	}
	return nil
}
