// Package conflict implements Swarm's conflict detection: the precise
// per-address accessor index the simulator uses to find the exact set of
// later-order tasks that must abort when an earlier task touches conflicting
// data, and the timestamp-comparison counts that set the modeled
// conflict-check latency.
package conflict

import (
	"swarmhints/internal/flat"
	"swarmhints/internal/mem"
	"swarmhints/internal/metrics"
	"swarmhints/internal/task"
)

// Index is the precise per-address accessor map used for conflict detection,
// at word granularity like the undo logs. It is a flat open-addressing table
// from address to the uncommitted readers and writers registered there; a
// query walks one entry and counts one timestamp comparison per accessor it
// visits. Swarm's hardware filters checks through Bloom signatures first,
// but a signature can only skip checks that would compare nothing, so the
// modeled check latency is fully determined by this walk.
type Index struct {
	tab flat.Table[entry]

	// rec receives per-tile counts of timestamp comparisons performed,
	// which the simulator turns into conflict-check latency (Table II:
	// 5 cycles + 1 cycle per timestamp compared). Query methods take the
	// tile on whose behalf the check runs.
	rec *metrics.Recorder

	// Query epochs: a task with SeenStamp == scanEpoch has already been
	// collected by the current LaterAccessors walk; AbortStamp == abortEpoch
	// means membership in the most recent AbortSet closure. Epochs bump
	// before use, so stamp 0 (fresh or recycled task) never matches.
	scanEpoch  uint64
	abortEpoch uint64

	// Reused query result buffers. Each query method overwrites its own
	// buffer on the next call; AbortSet's internal accessor walks use a
	// separate buffer so a caller may abort tasks while iterating a
	// LaterWriters/LaterAccessors result.
	wrScratch   []*task.Task // LaterWriters results
	accScratch  []*task.Task // LaterAccessors results
	absScratch  []*task.Task // AbortSet's internal LaterAccessors walks
	workScratch []*task.Task
	outScratch  []*task.Task

	// entryPool recycles entries (with their accessor-slice capacity) that
	// Remove deleted once their address went quiet; most addresses cycle
	// between empty and occupied throughout a run.
	entryPool mem.Pool[entry]

	// memoAddr/memoEntry remember the last table probe, including a miss
	// (memoEntry nil; the zero value records address 0 absent, true of the
	// empty table): one simulated access queries its address two or three
	// times and then registers it. Entries are pooled pointers and table
	// growth moves slots, not entries, so the memo only goes stale when its
	// address's entry is released — release resets it there.
	memoAddr  uint64
	memoEntry *entry
}

type entry struct {
	readers []*task.Task
	writers []*task.Task
}

// NewIndex returns an empty accessor index publishing comparison counts
// into rec. A nil rec gets a private single-tile recorder (standalone use).
func NewIndex(rec *metrics.Recorder) *Index {
	if rec == nil {
		rec = metrics.New(1)
	}
	return &Index{rec: rec}
}

// comp returns the comparison counter for tile, clamping out-of-range
// indices to tile 0 so a standalone index (private single-tile recorder)
// accepts any tile value its caller's tasks carry.
func (ix *Index) comp(tile int) *uint64 {
	if tile >= ix.rec.Tiles() {
		tile = 0
	}
	return &ix.rec.Tile(tile).Comparisons
}

// Comparisons returns the total timestamp comparisons performed, summed
// over tiles.
func (ix *Index) Comparisons() uint64 { return ix.rec.Aggregate().Comparisons }

// lookup returns the entry registered for addr, or nil, through the
// one-entry memo.
func (ix *Index) lookup(addr uint64) *entry {
	if addr == ix.memoAddr {
		return ix.memoEntry
	}
	e := ix.tab.Get(addr)
	ix.memoAddr, ix.memoEntry = addr, e
	return e
}

func (ix *Index) get(addr uint64) *entry {
	e := ix.lookup(addr)
	if e == nil {
		e = ix.entryPool.Get()
		ix.tab.Put(addr, e)
		ix.memoEntry = e // lookup just set memoAddr = addr
	}
	return e
}

// release returns a drained entry to the pool, keeping its slice capacity
// for the next address that heats up.
func (ix *Index) release(addr uint64, e *entry) {
	e.readers = e.readers[:0]
	e.writers = e.writers[:0]
	ix.tab.Delete(addr)
	if addr == ix.memoAddr {
		ix.memoEntry = nil // addr is now absent; e may serve another address
	}
	ix.entryPool.Put(e)
}

// OnRead registers a speculative read.
func (ix *Index) OnRead(t *task.Task, addr uint64) {
	e := ix.get(addr)
	e.readers = append(e.readers, t)
}

// OnWrite registers a speculative write.
func (ix *Index) OnWrite(t *task.Task, addr uint64) {
	e := ix.get(addr)
	e.writers = append(e.writers, t)
}

// LaterWriters returns uncommitted writers of addr ordered after o,
// excluding self. A read by a task ordered at o must abort these: the
// reader must not observe data from its logical future. tile is the tile
// performing the check, for comparison attribution. The returned slice is
// scratch, valid until the next LaterWriters call on this Index.
func (ix *Index) LaterWriters(addr uint64, o task.Order, self *task.Task, tile int) []*task.Task {
	e := ix.lookup(addr)
	if e == nil {
		return nil
	}
	comp := ix.comp(tile)
	out := ix.wrScratch[:0]
	for _, w := range e.writers {
		*comp++
		if w != self && w.State != task.Committed && o.Before(w.Ord()) {
			out = append(out, w)
		}
	}
	ix.wrScratch = out
	if len(out) == 0 {
		return nil
	}
	return out
}

// LatestEarlierWriter returns the latest-ordered uncommitted writer of addr
// that precedes o, or nil. This is the producer whose value a read at order
// o observes; the engine uses it to model forwarding latency — a consumer
// cannot complete before the producer's execution produced the value.
func (ix *Index) LatestEarlierWriter(addr uint64, o task.Order, self *task.Task, tile int) *task.Task {
	e := ix.lookup(addr)
	if e == nil {
		return nil
	}
	comp := ix.comp(tile)
	var best *task.Task
	for _, w := range e.writers {
		*comp++
		if w != self && w.State != task.Committed && w.Ord().Before(o) {
			if best == nil || best.Ord().Before(w.Ord()) {
				best = w
			}
		}
	}
	return best
}

// LaterAccessors returns uncommitted tasks ordered after o that read or
// wrote addr, excluding self. A write by a task ordered at o must abort all
// of these (readers observed a stale value; writers' undo chains would
// unwind incorrectly otherwise). tile attributes the comparisons. The
// returned slice is scratch, valid until the next LaterAccessors call on
// this Index (AbortSet's internal walks use a separate buffer, so aborting
// returned tasks while iterating is safe).
func (ix *Index) LaterAccessors(addr uint64, o task.Order, self *task.Task, tile int) []*task.Task {
	ix.accScratch = ix.laterAccessorsInto(ix.accScratch[:0], addr, o, self, tile)
	return ix.accScratch
}

// laterAccessorsInto appends the later accessors of addr to dst. Dedup —
// a task that both read and wrote addr, or read it twice, must appear once —
// is an epoch stamp on the task, bumped per walk, replacing the quadratic
// membership scan over the result slice.
func (ix *Index) laterAccessorsInto(dst []*task.Task, addr uint64, o task.Order, self *task.Task, tile int) []*task.Task {
	e := ix.lookup(addr)
	if e == nil {
		return dst
	}
	ix.scanEpoch++
	ep := ix.scanEpoch
	comp := ix.comp(tile)
	for _, r := range e.readers {
		*comp++
		if r != self && r.State != task.Committed && o.Before(r.Ord()) && r.SeenStamp != ep {
			r.SeenStamp = ep
			dst = append(dst, r)
		}
	}
	for _, w := range e.writers {
		*comp++
		if w != self && w.State != task.Committed && o.Before(w.Ord()) && w.SeenStamp != ep {
			w.SeenStamp = ep
			dst = append(dst, w)
		}
	}
	return dst
}

// Remove unregisters a task from every address it touched in its current
// attempt. Call on commit and on abort (before ResetAttempt).
func (ix *Index) Remove(t *task.Task) {
	for _, a := range t.Reads {
		if e := ix.lookup(a); e != nil {
			e.readers = removeTask(e.readers, t)
			if len(e.readers) == 0 && len(e.writers) == 0 {
				ix.release(a, e)
			}
		}
	}
	for _, a := range t.Writes {
		if e := ix.lookup(a); e != nil {
			e.writers = removeTask(e.writers, t)
			if len(e.readers) == 0 && len(e.writers) == 0 {
				ix.release(a, e)
			}
		}
	}
}

// removeTask drops every occurrence of t from ts in place, keeping the
// order of the rest. The prefix before the first match is left untouched.
func removeTask(ts []*task.Task, t *task.Task) []*task.Task {
	i := 0
	for i < len(ts) && ts[i] != t {
		i++
	}
	if i == len(ts) {
		return ts
	}
	out := ts[:i]
	for _, x := range ts[i+1:] {
		if x != t {
			out = append(out, x)
		}
	}
	return out
}

// AbortSet computes the transitive closure of tasks that must abort when
// the seed aborts: all non-committed descendants (children were created by
// a mispeculating execution) and, for every address the aborting tasks
// wrote, every uncommitted later-order reader or writer of that address
// (data-dependent tasks, Sec. II-B: "on an abort, Swarm aborts only
// descendants and data-dependent tasks"). The seed itself is included.
// Membership is an epoch stamp on the task (queried by InLastAbortSet); the
// returned slice is reused scratch, valid only until the next AbortSet call
// on this Index.
func (ix *Index) AbortSet(seed *task.Task) []*task.Task {
	ix.abortEpoch++
	ep := ix.abortEpoch
	seed.AbortStamp = ep
	work := append(ix.workScratch[:0], seed)
	out := ix.outScratch[:0]
	for len(work) > 0 {
		t := work[len(work)-1]
		work = work[:len(work)-1]
		out = append(out, t)
		for _, c := range t.Children {
			if c.AbortStamp != ep && c.State != task.Committed && c.State != task.Squashed {
				c.AbortStamp = ep
				work = append(work, c)
			}
		}
		// Only tasks that actually executed have speculative writes.
		if t.State == task.Running || t.State == task.Finished {
			for _, a := range t.Writes {
				ix.absScratch = ix.laterAccessorsInto(ix.absScratch[:0], a, t.Ord(), t, t.Tile)
				for _, u := range ix.absScratch {
					if u.AbortStamp != ep {
						u.AbortStamp = ep
						work = append(work, u)
					}
				}
			}
		}
	}
	ix.workScratch, ix.outScratch = work[:0], out
	return out
}

// InLastAbortSet reports whether t was in the set computed by the most
// recent AbortSet call. The engine uses it to distinguish squashed
// descendants (parent also aborting) from data-dependent retries without
// rebuilding its own membership map.
func (ix *Index) InLastAbortSet(t *task.Task) bool {
	return ix.abortEpoch != 0 && t.AbortStamp == ix.abortEpoch
}
