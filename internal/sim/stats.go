package sim

import (
	"fmt"
	"slices"

	"swarmhints/internal/cache"
	"swarmhints/internal/metrics"
)

// CycleBreakdown is the per-category sum of core cycles, matching the
// stacked bars of Fig. 2b / 5a / 8a / 11: cycles running eventually-
// committed tasks, cycles running eventually-aborted tasks, cycles spent
// spilling, cycles stalled on full task/commit queues, and cycles stalled
// with no tasks to run.
type CycleBreakdown struct {
	Commit uint64
	Abort  uint64
	Spill  uint64
	Stall  uint64
	Empty  uint64
}

// Total returns the sum across categories.
func (b CycleBreakdown) Total() uint64 {
	return b.Commit + b.Abort + b.Spill + b.Stall + b.Empty
}

// CoreTotal returns the sum of the four core-occupancy categories. Commit,
// abort, stall, and empty cycles partition core time exactly, so
// CoreTotal() == Cores×Cycles is a conservation invariant of every run;
// spill cycles are charged to the tile's coalescer unit on top of that.
func (b CycleBreakdown) CoreTotal() uint64 {
	return b.Commit + b.Abort + b.Stall + b.Empty
}

// Stats is the result of one simulation run: a chip-wide aggregate snapshot
// over the run's metrics.Recorder, plus the per-tile counter blocks the
// aggregates were summed from.
type Stats struct {
	// Cycles is the makespan: the cycle at which the last task committed.
	Cycles uint64
	// Cores is the number of cores simulated.
	Cores int
	// Breakdown attributes aggregate core cycles (see CoreTotal).
	Breakdown CycleBreakdown

	CommittedTasks  uint64
	AbortedAttempts uint64
	SquashedTasks   uint64
	SpilledTasks    uint64
	StolenTasks     uint64
	EnqueuedTasks   uint64

	// Traffic is NoC flits injected by class: mem, abort, task, GVT
	// (Fig. 5b legend order).
	Traffic [4]uint64

	Cache       cache.Stats
	Comparisons uint64
	Reconfigs   int
	GVTRounds   uint64

	// Tiles is the per-tile counter snapshot: one block per tile, the
	// ground truth every aggregate field above is summed from.
	Tiles []metrics.TileCounters

	// Classification is the Fig. 3/6 access profile (nil unless
	// Config.Profile was set).
	Classification *Classification

	// SeedSummary is the cross-seed dispersion block (nil unless this
	// Stats is a MergeStats aggregate over multiple seed replicas). It is
	// carried verbatim through Snapshot/StatsFromSnapshot, never derived.
	SeedSummary *metrics.SeedSummary
}

// TotalTraffic sums flits over all classes.
func (s *Stats) TotalTraffic() uint64 { return metrics.TotalTraffic(s.Traffic) }

// WastedFraction returns aborted cycles / (aborted + committed) cycles —
// the paper's "wasted work" metric.
func (s *Stats) WastedFraction() float64 {
	return metrics.WastedFraction(s.Breakdown.Abort, s.Breakdown.Commit)
}

// LoadImbalance returns max/mean committed cycles per tile (see
// metrics.LoadImbalance); 0 when nothing committed.
func (s *Stats) LoadImbalance() float64 { return metrics.LoadImbalance(s.Tiles) }

// newStats builds a run's Stats from its chip-level values and its per-tile
// blocks, which it takes ownership of: every aggregate field is the sum of
// the tiles. The classification is copied.
func newStats(chip metrics.Chip, tiles []metrics.TileCounters, cl *Classification, ss *metrics.SeedSummary) Stats {
	a := metrics.Sum(tiles)
	st := Stats{
		Cycles: chip.Cycles,
		Cores:  chip.Cores,
		Breakdown: CycleBreakdown{
			Commit: a.CommitCycles,
			Abort:  a.AbortCycles,
			Spill:  a.SpillCycles,
			Stall:  a.StallCycles,
			Empty:  a.EmptyCycles,
		},
		CommittedTasks:  a.CommittedTasks,
		AbortedAttempts: a.AbortedAttempts,
		SquashedTasks:   a.SquashedTasks,
		SpilledTasks:    a.SpilledTasks,
		StolenTasks:     a.StolenTasks,
		EnqueuedTasks:   a.EnqueuedTasks,
		Traffic:         a.Traffic,
		Cache:           cache.StatsFrom(a),
		Comparisons:     a.Comparisons,
		Reconfigs:       int(chip.Reconfigs),
		GVTRounds:       chip.GVTRounds,
		Tiles:           tiles,
		SeedSummary:     ss,
	}
	if cl != nil {
		c := *cl
		st.Classification = &c
	}
	return st
}

// Snapshot converts the run's statistics into the stable machine-readable
// schema (metrics.NewSnapshot over the per-tile blocks).
func (s *Stats) Snapshot() *metrics.Snapshot {
	chip := metrics.Chip{Cycles: s.Cycles, Cores: s.Cores, GVTRounds: s.GVTRounds, Reconfigs: uint64(s.Reconfigs)}
	return metrics.NewSnapshot(chip, s.Tiles, s.Classification, s.SeedSummary)
}

// StatsFromSnapshot rebuilds run statistics from their machine-readable
// snapshot — the inverse of Snapshot. It rebuilds from the chip-level
// values and the per-tile blocks, as the engine does at the end of a run,
// so the rebuilt Stats snapshot and export byte-identically to the
// original run's. The persistent result store (internal/store) relies on
// this to serve disk records as first-class results.
func StatsFromSnapshot(sn *metrics.Snapshot) *Stats {
	st := newStats(sn.Chip(), slices.Clone(sn.PerTile), sn.Classification, sn.SeedSummary)
	return &st
}

// MergeStats folds per-seed runs of one configuration — in canonical seed
// order — into a single aggregate: counters sum, derived metrics are
// recomputed from the merged counters, and SeedSummary carries the
// cross-seed dispersion. It goes through metrics.MergeSnapshots and back
// through StatsFromSnapshot, so the result round-trips byte-identically:
// MergeStats(runs).Snapshot() equals the metrics-level merge of the runs'
// snapshots, whatever sharding produced the inputs.
func MergeStats(runs []*Stats) (*Stats, error) {
	if len(runs) == 0 {
		return nil, fmt.Errorf("sim: merge of zero runs")
	}
	snaps := make([]*metrics.Snapshot, len(runs))
	for i, r := range runs {
		if r == nil {
			return nil, fmt.Errorf("sim: merge of nil run (index %d)", i)
		}
		snaps[i] = r.Snapshot()
	}
	merged, err := metrics.MergeSnapshots(snaps)
	if err != nil {
		return nil, err
	}
	return StatsFromSnapshot(merged), nil
}

// String gives a compact human-readable summary.
func (s *Stats) String() string {
	b := s.Breakdown
	return fmt.Sprintf(
		"cycles=%d cores=%d tasks=%d aborts=%d breakdown[commit=%d abort=%d spill=%d stall=%d empty=%d] flits[mem=%d abort=%d task=%d gvt=%d]",
		s.Cycles, s.Cores, s.CommittedTasks, s.AbortedAttempts,
		b.Commit, b.Abort, b.Spill, b.Stall, b.Empty,
		s.Traffic[0], s.Traffic[1], s.Traffic[2], s.Traffic[3])
}

// idleReason labels why a core could not dispatch, for breakdown
// attribution of idle gaps.
type idleReason uint8

const (
	idleNone    idleReason = iota
	idleEmpty              // no idle tasks on the tile
	idleCommitQ            // commit queue full (queue stall)
	idleSerial             // all candidates serialized behind same-hint tasks
)
