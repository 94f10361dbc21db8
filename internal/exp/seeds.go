package exp

import (
	"context"
	"fmt"

	"swarmhints/internal/bench"
	"swarmhints/internal/runner"
	"swarmhints/internal/store"
	"swarmhints/swarm"
)

// ReplicaSeeds returns the workload seeds of the n seed replicas of a run
// seeded with base: replica r runs DeriveSeed(base, r), matching the
// swarmsim -seeds convention, so a seed replica's result is the same record
// whether it was produced by a multi-seed fan-out or a plain single-seed
// run at the derived seed. n <= 1 means no fan-out: the base seed itself.
func ReplicaSeeds(base int64, n int) []int64 {
	if n <= 1 {
		return []int64{base}
	}
	seeds := make([]int64, n)
	for r := range seeds {
		seeds[r] = runner.DeriveSeed(base, r)
	}
	return seeds
}

// SeedRun is the seed replicas of one configuration: Point run at each of
// the workload seeds ReplicaSeeds(BaseSeed, Seeds). RunSeeds executes them.
type SeedRun struct {
	Point    Point
	Scale    bench.Scale
	BaseSeed int64
	Seeds    int // seed replicas; <=1 runs just BaseSeed
	Validate bool

	// Store, when non-nil (and Exec nil), is the persistent tier: each
	// seed replica is looked up under its existing per-seed ConfigKey
	// before executing and written through after, so re-merging the same
	// configuration with more seeds only runs the seeds not yet on disk.
	Store *store.Store
	// Exec, when non-nil, executes one seed replica in place of the local
	// path and bypasses the Store tier: the experiment Runner's
	// Options.Exec, or swarmsim's RunOn over a machine with custom queue
	// sizes, which is not a canonical configuration and so is never stored.
	// (The /v1 front end fans seed replicas out as points of its own and
	// merges their snapshots.)
	Exec func(ctx context.Context, seed int64, p Point) (*swarm.Stats, error)
}

// runReplica executes one seed replica through the configured tier. It is
// the one place outside the store and the service that reads and writes
// stored results; a store-served result is byte-identical to a computed
// one by the StatsFromSnapshot round-trip contract.
func (sr SeedRun) runReplica(ctx context.Context, seed int64) (*swarm.Stats, error) {
	if sr.Exec != nil {
		return sr.Exec(ctx, seed, sr.Point)
	}
	key := ""
	if sr.Store != nil {
		key = ConfigKey(sr.Scale, seed, sr.Point)
		if sn, ok := sr.Store.GetSnapshot(key); ok {
			return swarm.StatsFromSnapshot(sn), nil
		}
	}
	st, err := RunPoint(sr.Point, sr.Scale, seed, sr.Validate)
	if err == nil && sr.Store != nil {
		// Best effort: a full disk or unwritable directory degrades the
		// store to a read tier, it never fails the run (the store's
		// write-error counter records it).
		_ = sr.Store.PutStats(key, st)
	}
	return st, err
}

// RunSeeds is the one seed fan-out: every replica of every run is one job
// on a single runner.Sweep pool, and each run's results come back in
// replica order. Replica workload seeds are fixed by ReplicaSeeds, never by
// the job's derived sweep seed, so the pool changes when runs happen, never
// what they compute: the results are identical at any opt.Parallel. The
// first failure in (run, replica) order is returned; a replica of a
// multi-seed run names itself in it.
func RunSeeds(ctx context.Context, runs []SeedRun, opt runner.Options) ([][]*swarm.Stats, error) {
	per := make([][]*swarm.Stats, len(runs))
	var jobs []runner.Job
	for i, sr := range runs {
		seeds := ReplicaSeeds(sr.BaseSeed, sr.Seeds)
		per[i] = make([]*swarm.Stats, len(seeds))
		for r, seed := range seeds {
			name := sr.Point.Key()
			if len(seeds) > 1 {
				name = fmt.Sprintf("%s#%d", name, r)
			}
			jobs = append(jobs, runner.Job{
				Name: name,
				// Each job fills its own slot, so no locking is needed.
				Run: func(int64) (*swarm.Stats, error) {
					st, err := sr.runReplica(ctx, seed)
					if err != nil && len(seeds) > 1 {
						err = fmt.Errorf("seed replica %d (seed %d): %w", r, seed, err)
					}
					per[i][r] = st
					return st, err
				},
			})
		}
	}
	if err := runner.FirstErr(runner.Sweep(ctx, jobs, opt)); err != nil {
		return nil, err
	}
	return per, nil
}
