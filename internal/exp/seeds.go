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

// SeedShards partitions n seed replicas into at most shards contiguous
// [start, end) index ranges in canonical order: replica order, earlier
// shards at most one replica larger. shards <= 0 or >= n yields one shard
// per replica. The partition depends only on (n, shards), never on worker
// count or scheduling, so shard boundaries are deterministic.
func SeedShards(n, shards int) [][2]int {
	if n <= 0 {
		return nil
	}
	if shards <= 0 || shards > n {
		shards = n
	}
	out := make([][2]int, 0, shards)
	base, rem := n/shards, n%shards
	start := 0
	for s := 0; s < shards; s++ {
		size := base
		if s < rem {
			size++
		}
		out = append(out, [2]int{start, start + size})
		start += size
	}
	return out
}

// SeedRun executes the seed replicas of one configuration as shard jobs on
// the sweep-runner worker pool and merges the per-seed results in fixed
// seed order — so the aggregate record is byte-identical at any Parallel
// or Shards value, including the sequential single-engine reference
// (Shards=1, Parallel=1).
type SeedRun struct {
	Point    Point
	Scale    bench.Scale
	BaseSeed int64
	Seeds    int // seed replicas; <=1 runs just BaseSeed
	Shards   int // shard jobs; 0 (or >= Seeds) = one replica per shard
	Parallel int // worker goroutines (0 = GOMAXPROCS)
	Validate bool

	// Store, when non-nil (and Exec nil), is the persistent tier: each
	// seed replica is looked up under its existing per-seed ConfigKey
	// before executing and written through after, so re-merging the same
	// configuration with more seeds only runs the seeds not yet on disk.
	Store *store.Store
	// Exec, when non-nil, executes one seed replica in place of the local
	// path and bypasses the Store tier. Only swarmsim injects it, for RunOn
	// over a machine with custom queue sizes, which is not a canonical
	// configuration and so is never stored. (The /v1 front end fans seed
	// replicas out as points of its own and merges their snapshots.)
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
		if st, ok := sr.Store.GetStats(key); ok {
			return st, nil
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

// ShardJobs returns the fan-out's shard jobs. per must have one slot per
// seed replica; each job fills the disjoint index range of its shard, so
// no locking is needed. The derived sweep seed each job receives is
// ignored: replica workload seeds are fixed by ReplicaSeeds, so sharding
// changes when runs happen, never what they compute. Exposed so Prime can
// flatten many points' shard jobs onto one worker pool.
func (sr SeedRun) ShardJobs(ctx context.Context, per []*swarm.Stats) []runner.Job {
	seeds := ReplicaSeeds(sr.BaseSeed, sr.Seeds)
	shards := SeedShards(len(seeds), sr.Shards)
	jobs := make([]runner.Job, len(shards))
	for i, span := range shards {
		span := span
		jobs[i] = runner.Job{
			Name: fmt.Sprintf("%s#%d-%d", sr.Point.Key(), span[0], span[1]),
			Run: func(int64) (*swarm.Stats, error) {
				for r := span[0]; r < span[1]; r++ {
					if err := ctx.Err(); err != nil {
						return nil, err
					}
					st, err := sr.runReplica(ctx, seeds[r])
					if err != nil {
						return nil, fmt.Errorf("seed replica %d (seed %d): %w", r, seeds[r], err)
					}
					per[r] = st
				}
				return nil, nil
			},
		}
	}
	return jobs
}

// Run executes the fan-out and returns the merged aggregate plus the
// per-seed results in replica order.
func (sr SeedRun) Run(ctx context.Context) (*swarm.Stats, []*swarm.Stats, error) {
	per := make([]*swarm.Stats, len(ReplicaSeeds(sr.BaseSeed, sr.Seeds)))
	jobs := sr.ShardJobs(ctx, per)
	results := runner.Sweep(ctx, jobs, runner.Options{Parallel: sr.Parallel, Seed: sr.BaseSeed})
	if err := runner.FirstErr(results); err != nil {
		return nil, nil, err
	}
	merged, err := swarm.MergeStats(per)
	if err != nil {
		return nil, nil, err
	}
	return merged, per, nil
}
