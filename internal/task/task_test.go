package task

import (
	"math/rand"
	"testing"
	"testing/quick"

	"swarmhints/internal/mem"
)

// newTask builds a descriptor outside any pool.
func newTask(id uint64, fn FnID, ts uint64, kind HintKind, hint uint64, parent *Task, args ...uint64) *Task {
	t := &Task{}
	t.init(id, fn, ts, kind, hint, parent, args)
	return t
}

func mk(id, ts uint64) *Task {
	return newTask(id, 0, ts, HintInt, id*7, nil)
}

func TestOrderBefore(t *testing.T) {
	cases := []struct {
		a, b Order
		want bool
	}{
		{Order{1, 5}, Order{2, 1}, true},  // timestamp dominates
		{Order{2, 1}, Order{1, 5}, false}, // reversed
		{Order{3, 1}, Order{3, 2}, true},  // tie-break by creation id
		{Order{3, 2}, Order{3, 2}, false}, // equal is not before
		{Order{0, 0}, MaxOrder, true},     // everything precedes MaxOrder
	}
	for i, c := range cases {
		if got := c.a.Before(c.b); got != c.want {
			t.Fatalf("case %d: Before = %v, want %v", i, got, c.want)
		}
	}
}

func TestOrderTotality(t *testing.T) {
	f := func(ts1, id1, ts2, id2 uint64) bool {
		a, b := Order{ts1, id1}, Order{ts2, id2}
		if a == b {
			return !a.Before(b) && !b.Before(a)
		}
		return a.Before(b) != b.Before(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSameHintInheritsParent(t *testing.T) {
	p := newTask(1, 0, 10, HintInt, 42, nil)
	c := newTask(2, 0, 11, HintSame, 0, p)
	if !c.HasHint() || c.Hint != 42 {
		t.Fatalf("SAMEHINT child did not inherit parent's hint: %+v", c)
	}
	if c.HintHash != p.HintHash {
		t.Fatal("SAMEHINT child hash differs from parent's")
	}
}

func TestSameHintWithHintlessParent(t *testing.T) {
	p := newTask(1, 0, 10, HintNone, 0, nil)
	c := newTask(2, 0, 11, HintSame, 0, p)
	if c.HasHint() {
		t.Fatal("SAMEHINT child of NOHINT parent must not have an integer hint")
	}
	if c.HintKind != HintSame {
		t.Fatal("unresolved SAMEHINT must stay HintSame for local placement")
	}
}

func TestDescriptorBytes(t *testing.T) {
	t1 := newTask(1, 0, 0, HintInt, 5, nil, 1, 2, 3)
	if DescriptorBytes(t1) != 8+8+24+2 {
		t.Fatalf("descriptor bytes = %d", DescriptorBytes(t1))
	}
	t2 := newTask(2, 0, 0, HintInt, 5, nil)
	if DescriptorBytes(t2) < 26 {
		t.Fatal("descriptor must have a minimum size")
	}
}

func TestQueueEnqueueDispatchOrder(t *testing.T) {
	q := NewQueue(0, 8, 4)
	q.Enqueue(mk(3, 30))
	q.Enqueue(mk(1, 10))
	q.Enqueue(mk(2, 20))
	if got := q.PeekEarliest(); got.ID != 1 {
		t.Fatalf("earliest = task %d, want 1", got.ID)
	}
	e := q.PeekEarliest()
	q.Dispatch(e, 0)
	if e.State != Running || q.IdleCount() != 2 {
		t.Fatal("dispatch bookkeeping wrong")
	}
	if got := q.PeekEarliest(); got.ID != 2 {
		t.Fatalf("next earliest = %d, want 2", got.ID)
	}
}

func TestQueueTimestampTieBreak(t *testing.T) {
	q := NewQueue(0, 8, 4)
	a := mk(5, 7)
	b := mk(4, 7)
	q.Enqueue(a)
	q.Enqueue(b)
	if q.PeekEarliest() != b {
		t.Fatal("equal timestamps must order by creation id")
	}
}

func TestQueueCapacity(t *testing.T) {
	q := NewQueue(0, 2, 2)
	if !q.Enqueue(mk(1, 1)) || !q.Enqueue(mk(2, 2)) {
		t.Fatal("enqueue under capacity failed")
	}
	if q.Enqueue(mk(3, 3)) {
		t.Fatal("enqueue over capacity succeeded")
	}
	if !q.Full() {
		t.Fatal("queue should report full")
	}
}

func TestCommitQueueAccounting(t *testing.T) {
	q := NewQueue(0, 8, 1)
	a, b := mk(1, 1), mk(2, 2)
	q.Enqueue(a)
	q.Enqueue(b)
	if !q.CommitSlotFree() {
		t.Fatal("commit slot should be free before dispatch")
	}
	q.Dispatch(a, 0) // reserves the slot
	if q.CommitSlotFree() {
		t.Fatal("commit queue of size 1 should be full after reservation")
	}
	q.Finish(a)
	q.Commit(a)
	if !q.CommitSlotFree() || q.Resident() != 1 {
		t.Fatal("commit did not release resources")
	}
}

func TestAbortRunningRequeues(t *testing.T) {
	q := NewQueue(0, 8, 1)
	a := mk(1, 1)
	q.Enqueue(a)
	q.Dispatch(a, 0)
	q.Requeue(a)
	if a.State != Idle || q.IdleCount() != 1 || a.Aborts != 1 {
		t.Fatalf("abort-running bookkeeping wrong: %+v idle=%d", a, q.IdleCount())
	}
	if !q.CommitSlotFree() || q.Resident() != 1 {
		t.Fatal("requeue of a running task must free its commit slot and stay resident")
	}
}

func TestAbortFinishedFreesCommitSlot(t *testing.T) {
	q := NewQueue(0, 8, 1)
	a := mk(1, 1)
	q.Enqueue(a)
	q.Dispatch(a, 0)
	q.Finish(a)
	q.Requeue(a)
	if !q.CommitSlotFree() || a.State != Idle {
		t.Fatal("abort-finished did not free the commit slot")
	}
	if q.IdleCount() != 1 || q.Resident() != 1 || a.Aborts != 1 {
		t.Fatalf("abort-finished bookkeeping wrong: %+v idle=%d resident=%d", a, q.IdleCount(), q.Resident())
	}
}

// TestSquashRemoves: Squash discards a task from every state it can be in
// when an ancestor aborts. Idle tasks leave the ring, running and finished
// ones free their commit slot, and spilled ones are only marked.
func TestSquashRemoves(t *testing.T) {
	q := NewQueue(0, 8, 4)
	a := mk(1, 1)
	q.Enqueue(a)
	q.Squash(a)
	if q.Resident() != 0 || q.IdleCount() != 0 || a.State != Squashed {
		t.Fatal("squash did not remove the task")
	}

	for _, finish := range []bool{false, true} {
		q := NewQueue(0, 8, 1)
		a := mk(1, 1)
		q.Enqueue(a)
		q.Dispatch(a, 0)
		if finish {
			q.Finish(a)
		}
		q.Squash(a)
		if !q.CommitSlotFree() || q.Resident() != 0 || q.IdleCount() != 0 || a.State != Squashed || a.Aborts != 0 {
			t.Fatalf("squash (finished=%v) bookkeeping wrong: %+v resident=%d", finish, a, q.Resident())
		}
	}

	q = NewQueue(0, 8, 4)
	for i := uint64(1); i <= 2; i++ {
		q.Enqueue(mk(i, i))
	}
	sp := q.Spill(1)
	q.Squash(sp[0])
	if sp[0].State != Squashed || q.Resident() != 1 || q.SpilledCount() != 1 {
		t.Fatalf("squash of a spilled task must only mark it: state=%v resident=%d spilled=%d",
			sp[0].State, q.Resident(), q.SpilledCount())
	}
	if back := q.Refill(4); len(back) != 0 || q.SpilledCount() != 0 {
		t.Fatalf("refill returned %d tasks, %d still spilled; the squashed one must be dropped", len(back), q.SpilledCount())
	}
}

func TestSpillPrefersLatest(t *testing.T) {
	q := NewQueue(0, 16, 4)
	for i := uint64(1); i <= 10; i++ {
		q.Enqueue(mk(i, i))
	}
	spilled := q.Spill(3)
	if len(spilled) != 3 {
		t.Fatalf("spilled %d tasks, want 3", len(spilled))
	}
	for _, s := range spilled {
		if s.TS < 8 {
			t.Fatalf("spilled an early task (ts=%d); must spill latest", s.TS)
		}
		if s.State != Spilled {
			t.Fatal("spilled task state wrong")
		}
	}
	if q.Resident() != 7 || q.SpilledCount() != 3 {
		t.Fatal("spill accounting wrong")
	}
}

func TestRefillEarliestFirst(t *testing.T) {
	q := NewQueue(0, 16, 4)
	for i := uint64(1); i <= 10; i++ {
		q.Enqueue(mk(i, i))
	}
	q.Spill(5)
	back := q.Refill(2)
	if len(back) != 2 {
		t.Fatalf("refilled %d, want 2", len(back))
	}
	if back[0].Ord().Before(Order{0, 0}) || !back[0].Ord().Before(back[1].Ord()) {
		t.Fatal("refill must return earliest spilled tasks first")
	}
	if q.SpilledCount() != 3 {
		t.Fatal("refill accounting wrong")
	}
}

func TestRefillSkipsSquashed(t *testing.T) {
	q := NewQueue(0, 16, 4)
	for i := uint64(1); i <= 4; i++ {
		q.Enqueue(mk(i, i))
	}
	sp := q.Spill(4)
	sp[0].State = Squashed
	back := q.Refill(4)
	if len(back) != 3 {
		t.Fatalf("refilled %d, want 3 (one squashed)", len(back))
	}
}

func TestNearlyFull(t *testing.T) {
	q := NewQueue(0, 100, 4)
	for i := uint64(0); i < 85; i++ {
		q.Enqueue(mk(i+1, i))
	}
	if !q.NearlyFull(85) {
		t.Fatal("85/100 should trip the 85% threshold")
	}
	if q.NearlyFull(90) {
		t.Fatal("85/100 should not trip a 90% threshold")
	}
}

func TestIdleInOrderVisitsAllInOrder(t *testing.T) {
	q := NewQueue(0, 64, 4)
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 40; i++ {
		q.Enqueue(mk(uint64(i+1), uint64(rng.Intn(1000))))
	}
	var prev Order
	count := 0
	q.IdleInOrder(func(t2 *Task) bool {
		if count > 0 && t2.Ord().Before(prev) {
			t.Fatal("IdleInOrder not in speculative order")
		}
		prev = t2.Ord()
		count++
		return true
	})
	if count != 40 {
		t.Fatalf("visited %d, want 40", count)
	}
	if q.IdleCount() != 40 {
		t.Fatal("IdleInOrder must restore the heap")
	}
}

func TestIdleInOrderEarlyStopRestoresHeap(t *testing.T) {
	q := NewQueue(0, 64, 4)
	for i := uint64(1); i <= 10; i++ {
		q.Enqueue(mk(i, i))
	}
	n := 0
	q.IdleInOrder(func(*Task) bool { n++; return n < 3 })
	if q.IdleCount() != 10 {
		t.Fatalf("heap lost tasks after early stop: %d", q.IdleCount())
	}
	if q.PeekEarliest().TS != 1 {
		t.Fatal("heap order corrupted after early stop")
	}
}

func TestEarliestUncommitted(t *testing.T) {
	q := NewQueue(0, 16, 4)
	a, b := mk(5, 50), mk(6, 60)
	q.Enqueue(a)
	q.Enqueue(b)
	run := mk(7, 40)
	got := q.EarliestUncommitted([]*Task{run})
	if got != (Order{40, 7}) {
		t.Fatalf("earliest = %+v, want ts=40", got)
	}
	if got := q.EarliestUncommitted(nil); got != (Order{50, 5}) {
		t.Fatalf("earliest without running = %+v, want ts=50", got)
	}
	empty := NewQueue(1, 4, 2)
	if got := empty.EarliestUncommitted(nil); got != MaxOrder {
		t.Fatal("empty tile must report MaxOrder")
	}

	// Spilled tasks count, squashed ones linger in the spill buffer but do
	// not. The floor reads the buffer from its earliest end; it must agree
	// with a scan over every entry wherever the squashed tasks sit.
	scan := func(q *Queue) Order {
		best := MaxOrder
		if e := q.PeekEarliest(); e != nil {
			best = e.Ord()
		}
		for _, tk := range q.spillBuffer {
			if tk.State == Spilled && tk.Ord().Before(best) {
				best = tk.Ord()
			}
		}
		return best
	}
	spilled := func(squash ...uint64) *Queue {
		q := NewQueue(2, 64, 4)
		for id := uint64(10); id < 18; id++ {
			q.SpillDirect(mk(id, 100+id))
		}
		for _, tk := range q.spillBuffer {
			for _, id := range squash {
				if tk.ID == id {
					tk.State = Squashed
				}
			}
		}
		return q
	}
	cases := []struct {
		name   string
		squash []uint64
		want   Order
	}{
		{"none squashed", nil, Order{110, 10}},
		{"tail squashed", []uint64{10, 11}, Order{112, 12}},
		{"middle squashed", []uint64{13, 14, 15}, Order{110, 10}},
		{"tail and middle squashed", []uint64{10, 12, 14}, Order{111, 11}},
		{"all but the latest squashed", []uint64{10, 11, 12, 13, 14, 15, 16}, Order{117, 17}},
		{"all squashed", []uint64{10, 11, 12, 13, 14, 15, 16, 17}, MaxOrder},
	}
	for _, c := range cases {
		q := spilled(c.squash...)
		if got := q.EarliestUncommitted(nil); got != c.want || got != scan(q) {
			t.Errorf("%s: floor %+v, want %+v (full scan %+v)", c.name, got, c.want, scan(q))
		}
		// An idle task earlier than every spilled one still wins.
		q.Enqueue(mk(3, 105))
		if got := q.EarliestUncommitted(nil); got != (Order{105, 3}) || got != scan(q) {
			t.Errorf("%s with idle task: floor %+v, want ts=105 (full scan %+v)", c.name, got, scan(q))
		}
	}
}

func TestHeapPropertyRandomized(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := NewQueue(0, 1024, 4)
		live := map[uint64]*Task{}
		var id uint64
		for op := 0; op < 300; op++ {
			switch rng.Intn(3) {
			case 0, 1:
				id++
				tk := mk(id, uint64(rng.Intn(50)))
				if q.Enqueue(tk) {
					live[id] = tk
				}
			case 2:
				if e := q.PeekEarliest(); e != nil {
					// e must be the true minimum among live idle tasks.
					for _, o := range live {
						if o.State == Idle && o.Ord().Before(e.Ord()) {
							return false
						}
					}
					q.Dispatch(e, 0)
					delete(live, e.ID)
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPoolBuffers pins the slab-carved descriptor buffers: descriptors
// carved side by side never see each other's data as they grow past the
// carved sizes, the undo log keeps every entry in order through each move,
// an outgrown piece serves the next buffer of its size, a recycled
// descriptor keeps its buffers, and Put drops buffers larger than
// maxRetained.
func TestPoolBuffers(t *testing.T) {
	var pl Pool
	x := pl.Get(7, 0, 1, HintNone, 0, nil, nil)
	pl.AddRead(x, 1)
	first := &x.Reads[0]
	pl.AddRead(x, 2) // outgrows its one-element piece
	y := pl.Get(8, 0, 2, HintNone, 0, nil, nil)
	pl.AddRead(y, 3)
	if &y.Reads[0] != first || x.Reads[0] != 1 || x.Reads[1] != 2 {
		t.Fatal("an outgrown piece was not reused by the next buffer of its size")
	}

	a := pl.Get(1, 0, 10, HintNone, 0, nil, []uint64{7, 8})
	b := pl.Get(2, 0, 20, HintNone, 0, nil, []uint64{9})
	const n = 40
	for i := uint64(0); i < n; i++ {
		pl.AddRead(a, 1000+i)
		pl.AddRead(b, 2000+i)
		pl.AddWrite(a, 3000+i, mem.UndoEntry{Addr: 3000 + i, Old: i, Seq: 2 * i})
		pl.AddWrite(b, 4000+i, mem.UndoEntry{Addr: 4000 + i, Old: i, Seq: 2*i + 1})
		pl.AddChild(a, b)
	}
	if a.Args[0] != 7 || a.Args[1] != 8 || b.Args[0] != 9 {
		t.Fatalf("args clobbered: %v %v", a.Args, b.Args)
	}
	for i := uint64(0); i < n; i++ {
		if a.Reads[i] != 1000+i || b.Reads[i] != 2000+i || a.Writes[i] != 3000+i || b.Writes[i] != 4000+i {
			t.Fatalf("access %d clobbered: %d %d %d %d", i, a.Reads[i], b.Reads[i], a.Writes[i], b.Writes[i])
		}
		if e := a.Undo.Entries()[i]; e != (mem.UndoEntry{Addr: 3000 + i, Old: i, Seq: 2 * i}) {
			t.Fatalf("undo entry %d = %+v", i, e)
		}
		if e := b.Undo.Entries()[i]; e.Seq != 2*i+1 {
			t.Fatalf("undo entry %d = %+v", i, e)
		}
		if a.Children[i] != b {
			t.Fatalf("child %d clobbered", i)
		}
	}

	// Recycling keeps buffers up to maxRetained and drops larger ones.
	for i := 0; i < maxRetained; i++ {
		pl.AddRead(b, uint64(i))
	}
	readsCap := cap(a.Reads)
	pl.Put(a)
	pl.Put(b)
	c := pl.Get(3, 0, 30, HintNone, 0, nil, nil) // LIFO: b's descriptor
	if c != b || cap(c.Reads) != 0 || len(c.Writes) != 0 || cap(c.Writes) == 0 {
		t.Fatalf("recycled oversized descriptor: reads cap %d, writes len %d cap %d", cap(c.Reads), len(c.Writes), cap(c.Writes))
	}
	d := pl.Get(4, 0, 40, HintNone, 0, nil, nil)
	if d != a || cap(d.Reads) != readsCap || len(d.Reads) != 0 || d.Undo.Len() != 0 || len(d.Children) != 0 {
		t.Fatalf("recycled descriptor lost its buffers or kept its data")
	}
}
