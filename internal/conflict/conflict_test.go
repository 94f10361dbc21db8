package conflict

import (
	"testing"

	"swarmhints/internal/task"
)

// tasks hands out the tests' descriptors.
var tasks task.Pool

func mk(id, ts uint64) *task.Task {
	t := tasks.Get(id, 0, ts, task.HintNone, 0, nil, nil)
	t.State = task.Running
	return t
}

func TestLaterWritersDetectsFutureData(t *testing.T) {
	ix := NewIndex(nil)
	early, late := mk(1, 10), mk(2, 20)
	late.Writes = append(late.Writes, 0x100)
	ix.OnWrite(late, 0x100)
	got := ix.LaterWriters(0x100, early.Ord(), early, 0)
	if len(got) != 1 || got[0] != late {
		t.Fatalf("later writer not found: %v", got)
	}
	// The later task reading data written earlier is fine (forwarding).
	if got := ix.LaterWriters(0x100, task.Order{TS: 30, ID: 3}, nil, 0); len(got) != 0 {
		t.Fatal("earlier writer flagged as later")
	}
}

func TestLaterAccessorsWriteConflict(t *testing.T) {
	ix := NewIndex(nil)
	early, r, w := mk(1, 10), mk(2, 20), mk(3, 30)
	ix.OnRead(r, 0x200)
	r.Reads = append(r.Reads, 0x200)
	ix.OnWrite(w, 0x200)
	w.Writes = append(w.Writes, 0x200)
	got := ix.LaterAccessors(0x200, early.Ord(), early, 0)
	if len(got) != 2 {
		t.Fatalf("want both later reader and writer, got %d", len(got))
	}
}

func TestCommittedTasksIgnored(t *testing.T) {
	ix := NewIndex(nil)
	early, late := mk(1, 10), mk(2, 20)
	ix.OnWrite(late, 0x300)
	late.State = task.Committed
	if got := ix.LaterWriters(0x300, early.Ord(), early, 0); len(got) != 0 {
		t.Fatal("committed task flagged as conflicting")
	}
}

func TestRemoveUnregisters(t *testing.T) {
	ix := NewIndex(nil)
	early, late := mk(1, 10), mk(2, 20)
	ix.OnWrite(late, 0x400)
	ix.OnRead(late, 0x408)
	late.Writes = append(late.Writes, 0x400)
	late.Reads = append(late.Reads, 0x408)
	ix.Remove(late)
	if got := ix.LaterWriters(0x400, early.Ord(), early, 0); len(got) != 0 {
		t.Fatal("removed task still registered")
	}
	if got := ix.LaterAccessors(0x408, early.Ord(), early, 0); len(got) != 0 {
		t.Fatal("removed reader still registered")
	}
}

func TestSelfExcluded(t *testing.T) {
	ix := NewIndex(nil)
	a := mk(1, 10)
	ix.OnWrite(a, 0x500)
	if got := ix.LaterWriters(0x500, task.Order{TS: 5}, a, 0); len(got) != 0 {
		t.Fatal("task conflicts with itself")
	}
}

func TestAbortSetDescendants(t *testing.T) {
	ix := NewIndex(nil)
	p := mk(1, 10)
	c1, c2 := mk(2, 20), mk(3, 30)
	gc := mk(4, 40)
	c1.Parent, c2.Parent, gc.Parent = p, p, c1
	p.Children = []*task.Task{c1, c2}
	c1.Children = []*task.Task{gc}
	set := ix.AbortSet(p)
	if len(set) != 4 {
		t.Fatalf("abort set size %d, want 4 (parent + 2 children + grandchild)", len(set))
	}
}

func TestAbortSetDataDependents(t *testing.T) {
	ix := NewIndex(nil)
	w := mk(1, 10)
	r := mk(2, 20)
	w.Writes = append(w.Writes, 0x600)
	ix.OnWrite(w, 0x600)
	ix.OnRead(r, 0x600)
	r.Reads = append(r.Reads, 0x600)
	set := ix.AbortSet(w)
	if len(set) != 2 {
		t.Fatalf("abort set %d, want writer + dependent reader", len(set))
	}
}

func TestAbortSetCascade(t *testing.T) {
	// w wrote X; r read X and wrote Y; s read Y. Aborting w must abort all 3.
	ix := NewIndex(nil)
	w, r, s := mk(1, 10), mk(2, 20), mk(3, 30)
	w.Writes = []uint64{0x700}
	ix.OnWrite(w, 0x700)
	r.Reads = []uint64{0x700}
	ix.OnRead(r, 0x700)
	r.Writes = []uint64{0x708}
	ix.OnWrite(r, 0x708)
	s.Reads = []uint64{0x708}
	ix.OnRead(s, 0x708)
	set := ix.AbortSet(w)
	if len(set) != 3 {
		t.Fatalf("cascade abort set %d, want 3", len(set))
	}
}

func TestAbortSetExcludesEarlierTasks(t *testing.T) {
	ix := NewIndex(nil)
	w := mk(5, 50)
	earlier := mk(1, 10)
	w.Writes = []uint64{0x800}
	ix.OnWrite(w, 0x800)
	ix.OnRead(earlier, 0x800)
	earlier.Reads = []uint64{0x800}
	set := ix.AbortSet(w)
	if len(set) != 1 {
		t.Fatalf("earlier-order reader wrongly aborted (set=%d)", len(set))
	}
}

func TestAbortSetIdleTaskHasNoWrites(t *testing.T) {
	ix := NewIndex(nil)
	p := mk(1, 10)
	c := mk(2, 20)
	c.Parent = p
	c.State = task.Idle
	p.Children = []*task.Task{c}
	// Idle child never ran; it has no dependents to drag in.
	set := ix.AbortSet(p)
	if len(set) != 2 {
		t.Fatalf("set=%d, want parent+idle child", len(set))
	}
}

func TestComparisonsCounted(t *testing.T) {
	ix := NewIndex(nil)
	w := mk(1, 10)
	ix.OnWrite(w, 0x900)
	before := ix.Comparisons()
	ix.LaterWriters(0x900, task.Order{TS: 1}, nil, 0)
	if ix.Comparisons() <= before {
		t.Fatal("timestamp comparisons not counted")
	}
}

func TestStandaloneIndexAcceptsAnyTile(t *testing.T) {
	// A standalone index (nil recorder) holds a private single-tile
	// recorder; queries for higher tile numbers must clamp, not panic.
	ix := NewIndex(nil)
	w := mk(1, 10)
	w.Tile = 3
	w.Writes = append(w.Writes, 0xa00)
	ix.OnWrite(w, 0xa00)
	if got := ix.LaterWriters(0xa00, task.Order{TS: 1}, nil, 5); len(got) != 1 {
		t.Fatalf("later writer not found via out-of-range tile: %v", got)
	}
	if set := ix.AbortSet(w); len(set) != 1 {
		t.Fatalf("AbortSet with out-of-range task tile: %v", set)
	}
	if ix.Comparisons() == 0 {
		t.Fatal("clamped comparisons not counted")
	}
}
