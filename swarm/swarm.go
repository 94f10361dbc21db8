// Package swarm is the public API of the swarmhints library: a Swarm-style
// speculative task-parallel programming model with spatial hints, executed
// on a simulated tiled multicore.
//
// It reproduces the system of "Data-Centric Execution of Speculative
// Parallel Programs" (Jeffrey et al., MICRO 2016). Programs consist of
// timestamped tasks that appear to execute in timestamp order; each task may
// carry a spatial hint — an abstract integer naming the data it will likely
// access — which the hardware model uses to co-locate and serialize
// conflicting tasks and to balance load.
//
// A minimal program mirrors Listing 1 of the paper:
//
//	p := swarm.NewProgram()
//	counter := p.Mem.AllocWords(1)
//	var inc swarm.FnID
//	inc = p.Register("inc", func(c *swarm.Ctx) {
//	    c.Write(counter, c.Read(counter)+1)
//	})
//	p.EnqueueRoot(inc, 0, counter) // timestamp 0, hint = counter address
//	stats, err := p.Run(swarm.ScaledConfig().WithCores(16))
//
// See the examples/ directory for complete applications.
package swarm

import (
	"swarmhints/internal/metrics"
	"swarmhints/internal/sched"
	"swarmhints/internal/sim"
	"swarmhints/internal/task"
)

// Ctx is the execution context passed to every task body. Use it to access
// simulated memory, charge compute cycles, and enqueue child tasks.
type Ctx = sim.Ctx

// TaskFn is a task body.
type TaskFn = sim.TaskFn

// FnID names a registered task function.
type FnID = task.FnID

// Config parameterizes a run: mesh size, cores/tile, queue and cache
// capacities, scheduler, and instrumentation. DefaultConfig mirrors
// Table II of the paper.
type Config = sim.Config

// Stats is the outcome of a run: makespan, cycle breakdown (commit, abort,
// spill, stall, empty), NoC traffic by class, and optionally the access
// classification of Fig. 3/6.
type Stats = sim.Stats

// CycleBreakdown is the per-category core-cycle attribution.
type CycleBreakdown = sim.CycleBreakdown

// Classification is the single/multi-hint × RO/RW access profile.
type Classification = sim.Classification

// TileCounters is one tile's counter block in Stats.Tiles: cycle breakdown,
// task lifecycle events, traffic by class, cache events, and conflict-check
// comparisons, all attributed to the tile they occurred on.
type TileCounters = metrics.TileCounters

// Snapshot is the stable machine-readable form of a run's statistics
// (schema swarmhints.metrics.v1), produced by Stats.Snapshot.
type Snapshot = metrics.Snapshot

// Record pairs a run's identifying labels with its snapshot.
type Record = metrics.Record

// ResultSet is an ordered collection of labeled run records with JSON and
// CSV encoders.
type ResultSet = metrics.ResultSet

// NewResultSet returns an empty result set with the given label columns.
func NewResultSet(fields ...string) *ResultSet { return metrics.NewResultSet(fields...) }

// StatsFromSnapshot rebuilds run statistics from their machine-readable
// snapshot, the inverse of Stats.Snapshot: the rebuilt Stats snapshot and
// export byte-identically to the run that produced the snapshot. The
// persistent result store uses it to serve disk records as first-class
// results.
func StatsFromSnapshot(sn *Snapshot) *Stats { return sim.StatsFromSnapshot(sn) }

// SeedSummary is the cross-seed dispersion block of a merged multi-seed
// snapshot (mean/min/max/stddev per headline metric).
type SeedSummary = metrics.SeedSummary

// MergeStats folds per-seed runs of one configuration — given in canonical
// seed order — into a single aggregate: counters sum, derived metrics are
// recomputed from the merged counters (never averaged), and SeedSummary
// carries cross-seed dispersion. The merge round-trips byte-identically
// through Snapshot/StatsFromSnapshot.
func MergeStats(runs []*Stats) (*Stats, error) { return sim.MergeStats(runs) }

// Scheduler kinds (Sec. II-C and VI of the paper).
const (
	Random        = sched.Random
	Stealing      = sched.Stealing
	Hints         = sched.Hints
	LBHints       = sched.LBHints
	LBIdleProxy   = sched.LBIdleProxy
	HintsNoSerial = sched.HintsNoSerial
)

// SchedKind selects the spatial task-mapping policy.
type SchedKind = sched.Kind

// DefaultConfig is the paper's 256-core configuration (Table II).
func DefaultConfig() Config { return sim.DefaultConfig() }

// ScaledConfig shrinks the memory system proportionally to the scaled-down
// inputs used by tests and quick experiment runs.
func ScaledConfig() Config { return sim.ScaledConfig() }

// Program is a Swarm program under construction: simulated memory, task
// functions, and the initial root tasks enqueued before Run (the analogue
// of code before swarm::run() in Listing 1).
type Program struct {
	*sim.Program
	roots []sim.Root
}

// NewProgram returns an empty program with fresh simulated memory.
func NewProgram() *Program {
	return &Program{Program: sim.NewProgram()}
}

// EnqueueRoot adds an initial task with an integer spatial hint.
func (p *Program) EnqueueRoot(fn FnID, ts uint64, hint uint64, args ...uint64) {
	p.roots = append(p.roots, sim.Root{Fn: fn, TS: ts, HintKind: task.HintInt, Hint: hint, Args: args})
}

// EnqueueRootNoHint adds an initial task whose accessed data is unknown.
func (p *Program) EnqueueRootNoHint(fn FnID, ts uint64, args ...uint64) {
	p.roots = append(p.roots, sim.Root{Fn: fn, TS: ts, HintKind: task.HintNone, Args: args})
}

// Roots returns the number of initial tasks.
func (p *Program) Roots() int { return len(p.roots) }

// Run executes the program to completion under cfg (the analogue of
// swarm::run()) and returns the run statistics. The program's memory holds
// the final committed state afterwards; a program can be run only once
// (build a fresh one per run, as workload generators do).
func (p *Program) Run(cfg Config) (*Stats, error) {
	return sim.Run(p.Program, p.roots, cfg)
}
