// Package sim is the Swarm architecture simulator: an event-driven model of
// the tiled multicore of Fig. 1 that executes speculative task programs with
// eager versioning, ordered conflict detection, hint-based spatial task
// mapping, same-hint dispatch serialization, spill coalescers, GVT commits,
// and the data-centric load balancer. It produces the cycle and traffic
// breakdowns reported throughout the paper's evaluation.
package sim

import (
	"swarmhints/internal/cache"
	"swarmhints/internal/mem"
	"swarmhints/internal/sched"
	"swarmhints/internal/task"
)

// TaskFn is the body of a Swarm task. It receives the execution context,
// through which it reads and writes simulated memory and enqueues children.
type TaskFn func(*Ctx)

// Program is a Swarm program: a simulated memory image plus a set of
// registered task functions. Programs are built once (setup phase, analogous
// to the code before swarm::run in Listing 1) and can be run under any
// configuration.
type Program struct {
	Mem   *mem.Memory
	fns   []TaskFn
	names []string
}

// NewProgram returns a program with fresh simulated memory.
func NewProgram() *Program {
	return &Program{Mem: mem.New()}
}

// Register adds a task function and returns its ID for use in enqueues.
func (p *Program) Register(name string, fn TaskFn) task.FnID {
	p.fns = append(p.fns, fn)
	p.names = append(p.names, name)
	return task.FnID(len(p.fns) - 1)
}

// NumFns returns the number of registered task functions (Table I column).
func (p *Program) NumFns() int { return len(p.fns) }

// Root describes one initial task enqueued before swarm::run.
type Root struct {
	Fn       task.FnID
	TS       uint64
	HintKind task.HintKind
	Hint     uint64
	Args     []uint64
}

// Fixed machine parameters. No experiment varies them, and a stored run is
// keyed by (scale, seed, point) alone, so they are constants rather than
// Config fields: a run made with any other value would be filed under a key
// that does not describe it. The task-op cost, GVT period, spill threshold
// and spill batch are Table II's; the per-task base, per-spilled-task,
// conflict-check and per-abort costs are this model's fixed overheads
// (Sec. IV-A: "simulating conflict check and rollback delays").
const (
	taskOpCycles        = 5   // per enqueue/dequeue/finish task op
	baseTaskCycles      = 10  // fixed non-memory cycles per task body
	gvtInterval         = 200 // cycles between GVT update rounds
	spillThresholdPct   = 85  // coalescer fires at this task-queue occupancy
	spillBatch          = 15  // tasks spilled per coalescer firing
	spillCyclesPer      = 5   // cycles charged per spilled/refilled task
	conflictCheckCycles = 1   // per-access conflict check
	abortBaseCycles     = 5   // per-abort overhead (starting the rollback)
)

// Config parameterizes one simulation. Defaults mirror Table II; tests and
// quick experiments scale capacities down with ScaledConfig.
type Config struct {
	MeshK        int // K×K tiles
	CoresPerTile int

	TaskQPerCore   int // task queue entries per core (64)
	CommitQPerCore int // commit queue entries per core (16)

	Cache cache.Config

	Scheduler  sched.Kind
	LBInterval uint64 // load-balancer reconfiguration period

	Seed      int64
	MaxCycles uint64 // watchdog; 0 = default
	Profile   bool   // collect the Fig. 3/6 access classification
}

// DefaultConfig is the paper's 256-core configuration (Table II).
func DefaultConfig() Config {
	return Config{
		MeshK:          8,
		CoresPerTile:   4,
		TaskQPerCore:   64,
		CommitQPerCore: 16,
		Cache:          cache.DefaultConfig(),
		Scheduler:      sched.Random,
		LBInterval:     50_000,
		Seed:           1,
	}
}

// ScaledConfig shrinks the memory system for the scaled-down inputs used in
// tests and quick experiment runs (Sec. 5 of DESIGN.md): same shape, smaller
// capacities, so working-set:cache ratios stay in the paper's regime.
func ScaledConfig() Config {
	c := DefaultConfig()
	c.Cache = cache.ScaledConfig()
	// Scale the speculation window with the workloads: the paper's 64+16
	// entries/core form a 16K-task window against runs of tens of millions
	// of tasks; our scaled inputs are ~100x smaller. Halving the window
	// keeps far-ahead speculation bounded without starving spills.
	c.TaskQPerCore = 32
	c.CommitQPerCore = 8
	// Reconfigure proportionally more often: the paper's 500 Kcycle period
	// is ~0.5% of its billion-cycle runs; scaled runs are 10-1000x shorter.
	c.LBInterval = 5_000
	return c
}

// WithCores returns a copy of c sized for n cores following the paper's
// scaling methodology: K×K tiles of CoresPerTile cores for n = 4K², and a
// single-core single-tile system for n = 1. Per-core queue and cache
// capacities stay constant.
func (c Config) WithCores(n int) Config {
	out := c
	switch {
	case n == 1:
		out.MeshK, out.CoresPerTile = 1, 1
	default:
		k := 1
		for k*k*c.CoresPerTile < n {
			k++
		}
		out.MeshK = k
	}
	return out
}

// Cores returns the total core count.
func (c Config) Cores() int { return c.MeshK * c.MeshK * c.CoresPerTile }

// Tiles returns the total tile count.
func (c Config) Tiles() int { return c.MeshK * c.MeshK }
