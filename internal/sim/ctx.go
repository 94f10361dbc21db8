package sim

import (
	"swarmhints/internal/mem"
	"swarmhints/internal/noc"
	"swarmhints/internal/task"
)

// Ctx is the execution context handed to a task body. Every Read and Write
// goes through the simulated cache hierarchy (charging latency and traffic)
// and through conflict detection (eager, ordered: an access by this task
// aborts any later-order speculative task holding conflicting data).
type Ctx struct {
	e      *Engine
	t      *task.Task
	core   int
	tile   int
	cycles uint64
}

// waitForProducer stalls this task when the current value of addr was
// written by a task that is still executing: forwarded data cannot be
// consumed before its producer has produced it (plus the NoC transfer).
// The stall is charged into the task's cycle count at the point of the
// access, so it compounds through dependency chains — without it, an
// N-deep chain of read-modify-writes would collapse to a single task
// duration of wall-clock time under any scheduler.
func (c *Ctx) waitForProducer(addr uint64) {
	w := c.e.index.LatestEarlierWriter(addr, c.t.Ord(), c.t, c.tile)
	if w == nil || w.State != task.Running {
		return
	}
	ready := c.e.cores[w.Core].busyUntil + uint64(c.e.mesh.Latency(c.tile, w.Tile))
	pos := c.e.now + c.cycles // absolute time of this access
	if ready > pos {
		c.cycles += ready - pos
	}
}

// TS returns the task's timestamp.
func (c *Ctx) TS() uint64 { return c.t.TS }

// Arg returns the i-th task argument.
func (c *Ctx) Arg(i int) uint64 { return c.t.Args[i] }

// NumArgs returns the argument count.
func (c *Ctx) NumArgs() int { return len(c.t.Args) }

// Hint returns the task's own hint value (for SAMEHINT-style reuse in
// program logic).
func (c *Ctx) Hint() uint64 { return c.t.Hint }

// Read performs a speculative read of the word at addr. If an uncommitted
// later-order task wrote addr, that task (and its dependents) aborts first:
// a task must never observe data from its logical future. Reads of data
// written by *earlier*-order speculative tasks are forwarded (Sec. II-B).
func (c *Ctx) Read(addr uint64) uint64 {
	e := c.e
	c.cycles += uint64(e.hier.Access(c.core, c.tile, addr, false, noc.MsgMem))
	c.cycles += conflictCheckCycles
	for {
		ws := e.index.LaterWriters(addr, c.t.Ord(), c.t, c.tile)
		if len(ws) == 0 {
			break
		}
		for _, w := range ws {
			// Remote conflicts are slower: the abort handshake crosses the
			// NoC, so local (same-tile) conflicts resolve much faster —
			// the property that makes hint serialization pay (Sec. II-C).
			c.cycles += abortBaseCycles + 2*uint64(e.mesh.Latency(c.tile, w.Tile))
			e.abort(w)
		}
	}
	c.waitForProducer(addr)
	e.index.OnRead(c.t, addr)
	e.pool.AddRead(c.t, addr)
	return e.prog.Mem.Load(addr)
}

// Write performs a speculative write of val to addr. Every uncommitted
// later-order task that read or wrote addr aborts (it either observed the
// stale value or its undo chain would unwind incorrectly). The old value is
// undo-logged for rollback.
func (c *Ctx) Write(addr, val uint64) {
	e := c.e
	c.cycles += uint64(e.hier.Access(c.core, c.tile, addr, true, noc.MsgMem))
	c.cycles += conflictCheckCycles
	for {
		us := e.index.LaterAccessors(addr, c.t.Ord(), c.t, c.tile)
		if len(us) == 0 {
			break
		}
		for _, u := range us {
			c.cycles += abortBaseCycles + 2*uint64(e.mesh.Latency(c.tile, u.Tile))
			e.abort(u)
		}
	}
	c.waitForProducer(addr) // WAW: our write completes after the earlier one
	old, seq := e.prog.Mem.Store(addr, val)
	e.index.OnWrite(c.t, addr)
	e.pool.AddWrite(c.t, addr, mem.UndoEntry{Addr: addr, Old: old, Seq: seq})
}

// Compute charges n cycles of non-memory work (e.g. kmeans distance math).
func (c *Ctx) Compute(n uint64) { c.cycles += n }

// Enqueue creates a child task with an integer spatial hint
// (swarm::enqueue(taskFn, ts, hint, args...), Sec. III-A).
func (c *Ctx) Enqueue(fn task.FnID, ts uint64, hint uint64, args ...uint64) {
	c.cycles += taskOpCycles
	c.e.enqueue(c.t, c.tile, fn, ts, task.HintInt, hint, args...)
}

// EnqueueNoHint creates a child with NOHINT: the data it will access is
// unknown, so placement is random.
func (c *Ctx) EnqueueNoHint(fn task.FnID, ts uint64, args ...uint64) {
	c.cycles += taskOpCycles
	c.e.enqueue(c.t, c.tile, fn, ts, task.HintNone, 0, args...)
}

// EnqueueSameHint creates a child with SAMEHINT: it inherits this task's
// hint (and with it, this task's tile) to exploit parent-child locality.
func (c *Ctx) EnqueueSameHint(fn task.FnID, ts uint64, args ...uint64) {
	c.cycles += taskOpCycles
	c.e.enqueue(c.t, c.tile, fn, ts, task.HintSame, 0, args...)
}
