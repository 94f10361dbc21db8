package conflict

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"swarmhints/internal/metrics"
	"swarmhints/internal/task"
)

// refIndex is a plain-map reference model of the precise accessor index,
// used to check the flat-table implementation over randomized access traces.
// Each query also reports the timestamp comparisons the walk performs: one
// per registered accessor visited.
type refIndex struct {
	readers map[uint64][]*task.Task
	writers map[uint64][]*task.Task
}

func newRefIndex() *refIndex {
	return &refIndex{readers: map[uint64][]*task.Task{}, writers: map[uint64][]*task.Task{}}
}

func (r *refIndex) laterWriters(addr uint64, o task.Order, self *task.Task) ([]*task.Task, uint64) {
	var out []*task.Task
	for _, w := range r.writers[addr] {
		if w != self && w.State != task.Committed && o.Before(w.Ord()) {
			out = append(out, w)
		}
	}
	return out, uint64(len(r.writers[addr]))
}

func (r *refIndex) latestEarlierWriter(addr uint64, o task.Order, self *task.Task) (*task.Task, uint64) {
	var best *task.Task
	for _, w := range r.writers[addr] {
		if w != self && w.State != task.Committed && w.Ord().Before(o) &&
			(best == nil || best.Ord().Before(w.Ord())) {
			best = w
		}
	}
	return best, uint64(len(r.writers[addr]))
}

func (r *refIndex) laterAccessors(addr uint64, o task.Order, self *task.Task) ([]*task.Task, uint64) {
	var out []*task.Task
	seen := map[*task.Task]bool{}
	for _, lst := range [][]*task.Task{r.readers[addr], r.writers[addr]} {
		for _, t := range lst {
			if t != self && t.State != task.Committed && o.Before(t.Ord()) && !seen[t] {
				seen[t] = true
				out = append(out, t)
			}
		}
	}
	return out, uint64(len(r.readers[addr]) + len(r.writers[addr]))
}

func (r *refIndex) remove(t *task.Task) {
	drop := func(m map[uint64][]*task.Task, addrs []uint64) {
		for _, a := range addrs {
			lst := m[a][:0]
			for _, x := range m[a] {
				if x != t {
					lst = append(lst, x)
				}
			}
			if len(lst) == 0 {
				delete(m, a)
			} else {
				m[a] = lst
			}
		}
	}
	drop(r.readers, t.Reads)
	drop(r.writers, t.Writes)
}

func sameTasks(a, b []*task.Task) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Trace operations shared by the randomized and the fuzz-driven checks.
const (
	opRead = iota
	opWrite
	opLaterWriters
	opLaterAccessors
	opLatestEarlierWriter
	opAbort     // remove + reset, the task stays live for a retry
	opCommit    // remove + reset, then mark committed
	opResurrect // a committed task comes back as a fresh attempt
	numOps
)

// diffHarness drives an Index (over a multi-tile recorder) and a refIndex in
// lockstep over a fixed set of tasks and a small address space, and tallies
// the comparisons the reference walks perform per tile.
type diffHarness struct {
	ix    *Index
	rec   *metrics.Recorder
	ref   *refIndex
	tasks []*task.Task
	addrs []uint64
	comps []uint64
}

func newDiffHarness(nTasks, nAddrs, tiles int) *diffHarness {
	h := &diffHarness{rec: metrics.New(tiles), ref: newRefIndex(), comps: make([]uint64, tiles)}
	h.ix = NewIndex(h.rec)
	for i := 0; i < nTasks; i++ {
		h.tasks = append(h.tasks, mk(uint64(i+1), uint64((i*7)%13)*10))
	}
	for i := 0; i < nAddrs; i++ {
		h.addrs = append(h.addrs, 0x1000+uint64(i)*8)
	}
	return h
}

// step applies one operation: tk is the registering, removed, or querying
// task, a the address, tile the tile a query is attributed to. It returns a
// description of the first divergence from the reference, or "".
func (h *diffHarness) step(op, tk, a, tile int) string {
	t := h.tasks[tk%len(h.tasks)]
	addr := h.addrs[a%len(h.addrs)]
	tile %= len(h.comps)
	op %= numOps
	switch op {
	case opRead:
		if t.State == task.Running {
			h.ix.OnRead(t, addr)
			t.Reads = append(t.Reads, addr)
			h.ref.readers[addr] = append(h.ref.readers[addr], t)
		}
	case opWrite:
		if t.State == task.Running {
			h.ix.OnWrite(t, addr)
			t.Writes = append(t.Writes, addr)
			h.ref.writers[addr] = append(h.ref.writers[addr], t)
		}
	case opLaterWriters:
		got := h.ix.LaterWriters(addr, t.Ord(), t, tile)
		want, n := h.ref.laterWriters(addr, t.Ord(), t)
		h.comps[tile] += n
		if !sameTasks(got, want) {
			return fmt.Sprintf("LaterWriters(%#x) = %v, want %v", addr, got, want)
		}
	case opLaterAccessors:
		got := h.ix.LaterAccessors(addr, t.Ord(), t, tile)
		want, n := h.ref.laterAccessors(addr, t.Ord(), t)
		h.comps[tile] += n
		if !sameTasks(got, want) {
			return fmt.Sprintf("LaterAccessors(%#x) = %v, want %v", addr, got, want)
		}
	case opLatestEarlierWriter:
		got := h.ix.LatestEarlierWriter(addr, t.Ord(), t, tile)
		want, n := h.ref.latestEarlierWriter(addr, t.Ord(), t)
		h.comps[tile] += n
		if got != want {
			return fmt.Sprintf("LatestEarlierWriter(%#x) = %v, want %v", addr, got, want)
		}
	case opAbort, opCommit:
		h.ix.Remove(t)
		h.ref.remove(t)
		t.ResetAttempt()
		if op == opCommit {
			t.State = task.Committed
		}
	case opResurrect:
		if t.State == task.Committed {
			t.State = task.Running
		}
	}
	for i, want := range h.comps {
		if got := h.rec.Tile(i).Comparisons; got != want {
			return fmt.Sprintf("tile %d comparisons = %d, reference walk counted %d", i, got, want)
		}
	}
	return ""
}

// checkTable reports a divergence between the flat table's address set and
// the reference's, or an empty entry the table kept alive, or "".
func (h *diffHarness) checkTable() string {
	present := map[uint64]bool{}
	var bad string
	h.ix.tab.Range(func(k uint64, e *entry) bool {
		present[k] = true
		if len(e.readers) == 0 && len(e.writers) == 0 {
			bad = fmt.Sprintf("empty entry retained for %#x", k)
			return false
		}
		if len(h.ref.readers[k]) == 0 && len(h.ref.writers[k]) == 0 {
			bad = fmt.Sprintf("table holds %#x, reference does not", k)
			return false
		}
		return true
	})
	if bad != "" {
		return bad
	}
	for _, m := range []map[uint64][]*task.Task{h.ref.readers, h.ref.writers} {
		for a := range m {
			if !present[a] {
				return fmt.Sprintf("reference address %#x missing from table", a)
			}
		}
	}
	return ""
}

// TestIndexDifferentialTrace drives a randomized access trace (reads,
// writes, aborts, commits, re-registrations) through the Index and a
// plain-map reference in lockstep. On every step, query results must be
// element-for-element identical (same tasks, same order) and each tile's
// comparison count must equal the count taken from the reference walks;
// periodically the table must hold exactly the reference's address set.
func TestIndexDifferentialTrace(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	h := newDiffHarness(40, 24, 4)
	for step := 0; step < 30_000; step++ {
		if msg := h.step(rng.Intn(numOps), rng.Int(), rng.Int(), rng.Int()); msg != "" {
			t.Fatalf("step %d: %s", step, msg)
		}
		if step%256 == 0 {
			if msg := h.checkTable(); msg != "" {
				t.Fatalf("step %d: %s", step, msg)
			}
		}
	}
}

// FuzzIndexVsReference decodes the fuzz input into an operation trace, three
// bytes per operation (operation and tile, task, address), over 12 tasks and
// 8 addresses, and holds the Index to the reference on every step.
func FuzzIndexVsReference(f *testing.F) {
	f.Add([]byte{opWrite, 3, 1, opRead, 5, 1, opLaterAccessors, 0, 1, opLatestEarlierWriter, 9, 1})
	f.Add([]byte{opWrite, 1, 2, opCommit, 1, 0, opLaterWriters, 0, 2, opResurrect, 1, 0, opWrite, 1, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		h := newDiffHarness(12, 8, 3)
		for i := 0; i+2 < len(ops); i += 3 {
			op := int(ops[i])
			if msg := h.step(op, int(ops[i+1]), int(ops[i+2]), op/numOps); msg != "" {
				t.Fatalf("op %d: %s", i/3, msg)
			}
		}
		if msg := h.checkTable(); msg != "" {
			t.Fatal(msg)
		}
	})
}

// TestQueryScratchSurvivesAbortWalk pins the buffer contract the engine
// relies on: a LaterAccessors result must stay intact while AbortSet (which
// walks accessors internally) runs on tasks drawn from it.
func TestQueryScratchSurvivesAbortWalk(t *testing.T) {
	ix := NewIndex(nil)
	early := mk(1, 10)
	a, b := mk(2, 20), mk(3, 30)
	for _, tk := range []*task.Task{a, b} {
		ix.OnWrite(tk, 0x40)
		tk.Writes = append(tk.Writes, 0x40)
		ix.OnWrite(tk, 0x48+tk.ID*8)
		tk.Writes = append(tk.Writes, 0x48+tk.ID*8)
	}
	got := ix.LaterAccessors(0x40, early.Ord(), early, 0)
	if len(got) != 2 {
		t.Fatalf("want 2 accessors, got %d", len(got))
	}
	ix.AbortSet(got[0]) // uses the internal walk buffer, not ours
	if got[0] != a || got[1] != b {
		t.Fatal("AbortSet clobbered the LaterAccessors result buffer")
	}
}

// releaseReuseTrace is an operation trace (the fuzz encoding: operation
// and tile, task, address) around entry recycling. Task 0 reads A (address
// 0) and is aborted, releasing A's entry; task 1's write to B (address 1)
// takes that entry from the pool; A is then queried. A second round
// registers A again, releases it, re-reads it at once, and hands the
// released entry to C (address 2) — a lookup that still resolved A to its
// released entry would register the read in an entry outside the table,
// and C would inherit it. The same bytes are a seed-corpus file of
// FuzzIndexVsReference (testdata/fuzz/FuzzIndexVsReference/release-reuse).
var releaseReuseTrace = []byte{
	opRead, 0, 0,
	opLaterWriters, 2, 0,
	opAbort, 0, 0,
	opWrite, 1, 1,
	opLaterWriters, 2, 0,
	opLaterAccessors, 0, 0,
	opLatestEarlierWriter, 3, 0,
	opLaterAccessors, 0, 1,
	opRead, 2, 0,
	opAbort, 2, 0,
	opRead, 4, 0,
	opWrite, 6, 2,
	opLaterAccessors, 0, 2,
	opLaterAccessors, 0, 0,
}

// TestIndexLookupAfterRelease pins the lookup memo's invalidation: once an
// address's entry is released to the pool, the address reads as untracked,
// even after the pool hands the same entry to another address. Results and
// comparison counts must match the reference at every step.
func TestIndexLookupAfterRelease(t *testing.T) {
	h := newDiffHarness(12, 8, 3)
	ops := releaseReuseTrace
	var first *entry
	for i := 0; i+2 < len(ops); i += 3 {
		op := int(ops[i])
		if msg := h.step(op, int(ops[i+1]), int(ops[i+2]), op/numOps); msg != "" {
			t.Fatalf("op %d: %s", i/3, msg)
		}
		switch i / 3 {
		case 0:
			first = h.ix.tab.Get(h.addrs[0])
		case 3:
			if h.ix.tab.Get(h.addrs[1]) != first {
				t.Fatal("pool did not hand A's released entry to B (test premise)")
			}
			if h.ix.tab.Get(h.addrs[0]) != nil {
				t.Fatal("released address still in the table")
			}
		}
		if msg := h.checkTable(); msg != "" {
			t.Fatalf("op %d: %s", i/3, msg)
		}
	}
	a := h.addrs[0]
	late := mk(99, 1000)
	early := mk(98, 0)
	if ws := h.ix.LaterWriters(a, early.Ord(), early, 0); len(ws) != 0 {
		t.Fatalf("LaterWriters(A) = %v after A's writers left", ws)
	}
	if w := h.ix.LatestEarlierWriter(a, late.Ord(), late, 0); w != nil {
		t.Fatalf("LatestEarlierWriter(A) = %v after A's writers left", w)
	}

	// The committed corpus file must hold exactly this trace.
	want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", ops)
	got, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzIndexVsReference", "release-reuse"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("release-reuse corpus file drifted from releaseReuseTrace:\n%s\nwant\n%s", got, want)
	}
}
