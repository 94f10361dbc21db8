package calq

import (
	"math/rand"
	"testing"
)

// refHeap is the reference implementation the calendar queue must match: a
// plain binary min-heap on (time, seq), the structure the engine used
// before calq existed.
type refHeap []Entry[int]

func (h *refHeap) push(e Entry[int]) {
	*h = append(*h, e)
	i := len(*h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !(*h)[i].before((*h)[p]) {
			break
		}
		(*h)[i], (*h)[p] = (*h)[p], (*h)[i]
		i = p
	}
}

func (h *refHeap) pop() Entry[int] {
	old := *h
	top := old[0]
	last := len(old) - 1
	old[0] = old[last]
	*h = old[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		s := i
		if l < last && old[l].before(old[s]) {
			s = l
		}
		if r < last && old[r].before(old[s]) {
			s = r
		}
		if s == i {
			break
		}
		old[i], old[s] = old[s], old[i]
		i = s
	}
	return top
}

func TestPopsInKeyOrder(t *testing.T) {
	q := New[int](256)
	rng := rand.New(rand.NewSource(1))
	seq := uint64(0)
	for i := 0; i < 1000; i++ {
		seq++
		q.Push(uint64(rng.Intn(5000)), seq, i)
	}
	var last Entry[int]
	for i := 0; q.Len() > 0; i++ {
		pt, ok := q.PeekTime()
		if !ok {
			t.Fatal("PeekTime reported empty on a non-empty queue")
		}
		e := q.Pop()
		if e.Time != pt {
			t.Fatalf("PeekTime %d but Pop returned time %d", pt, e.Time)
		}
		if i > 0 && e.before(last) {
			t.Fatalf("pop %d out of order: (%d,%d) after (%d,%d)", i, e.Time, e.Seq, last.Time, last.Seq)
		}
		last = e
	}
}

func TestOverflowMergesOnWrap(t *testing.T) {
	q := New[int](64)
	// All events far beyond the initial window: everything overflows, then
	// the first Pop re-anchors the ring.
	for i := uint64(0); i < 100; i++ {
		q.Push(1_000_000+i, i+1, int(i))
	}
	if q.over.len() != 100 {
		t.Fatalf("overflow holds %d entries, want 100", q.over.len())
	}
	for i := uint64(0); i < 100; i++ {
		e := q.Pop()
		if e.Time != 1_000_000+i {
			t.Fatalf("pop %d returned time %d", i, e.Time)
		}
	}
	if q.Len() != 0 {
		t.Fatal("queue not empty after draining")
	}
}

func TestSameTimeOrdersBySeq(t *testing.T) {
	q := New[int](64)
	// Same time, out-of-order seqs: exercises the binary-insert fallback.
	for _, s := range []uint64{5, 1, 9, 3, 7} {
		q.Push(10, s, int(s))
	}
	want := []uint64{1, 3, 5, 7, 9}
	for _, w := range want {
		if e := q.Pop(); e.Seq != w {
			t.Fatalf("seq %d popped, want %d", e.Seq, w)
		}
	}
}

func TestPushAtPoppedTime(t *testing.T) {
	// The engine pushes events for the current cycle while draining it; the
	// consumed prefix of the head bucket must not swallow them.
	q := New[int](64)
	q.Push(7, 1, 0)
	if e := q.Pop(); e.Seq != 1 {
		t.Fatal("wrong first pop")
	}
	q.Push(7, 2, 0) // same cycle, scheduled during handling
	q.Push(8, 3, 0)
	if tm, _ := q.PeekTime(); tm != 7 {
		t.Fatalf("peek after same-cycle push = %d, want 7", tm)
	}
	if e := q.Pop(); e.Time != 7 || e.Seq != 2 {
		t.Fatalf("pop = (%d,%d), want (7,2)", e.Time, e.Seq)
	}
	if e := q.Pop(); e.Time != 8 {
		t.Fatal("final pop wrong")
	}
}

func TestPushBeforeWindowPanics(t *testing.T) {
	q := New[int](64)
	q.Push(100, 1, 0)
	q.Pop()
	defer func() {
		if recover() == nil {
			t.Fatal("push before the last popped time did not panic")
		}
	}()
	q.Push(99, 2, 0)
}

func TestWindowAndOverflowInterleave(t *testing.T) {
	// A near event, a far event, then pops advance the window so a second
	// far event lands in-window while the first still sits in overflow:
	// Pop must compare both sides every time.
	q := New[int](64)
	q.Push(1, 1, 0)
	q.Push(70, 2, 0) // overflow (>= 64)
	if e := q.Pop(); e.Time != 1 {
		t.Fatal("wrong order")
	}
	q.Push(65, 3, 0) // in-window now (base advanced to 1)
	if e := q.Pop(); e.Time != 65 {
		t.Fatalf("popped %d, want 65 (in-window beats overflow)", e.Time)
	}
	if e := q.Pop(); e.Time != 70 {
		t.Fatalf("popped %d, want 70", e.Time)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() []Entry[int] {
		q := New[int](128)
		rng := rand.New(rand.NewSource(42))
		var out []Entry[int]
		now := uint64(0)
		for i := 0; i < 2000; i++ {
			if q.Len() == 0 || rng.Intn(3) != 0 {
				q.Push(now+uint64(rng.Intn(400)), uint64(i+1), i)
			} else {
				e := q.Pop()
				now = e.Time
				out = append(out, e)
			}
		}
		for q.Len() > 0 {
			out = append(out, q.Pop())
		}
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatal("replay lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// driveBoth feeds one operation stream to the calendar queue and the
// reference heap and fails on the first divergence. Times are generated at
// or after the last popped time, matching the queue's contract.
func driveBoth(t *testing.T, ops []byte, window int) {
	t.Helper()
	q := New[int](window)
	var h refHeap
	now := uint64(0)
	seq := uint64(0)
	payload := 0
	used := map[[2]uint64]bool{} // keys must be unique: equal keys have no defined pop order
	for i := 0; i+2 < len(ops); i += 3 {
		op, d1, d2 := ops[i], uint64(ops[i+1]), uint64(ops[i+2])
		if op%4 == 0 && len(h) > 0 {
			want := h.pop()
			if q.Len() != len(h)+1 {
				t.Fatalf("op %d: len %d, want %d", i, q.Len(), len(h)+1)
			}
			pt, _ := q.PeekTime()
			got := q.Pop()
			if got != want {
				t.Fatalf("op %d: pop (%d,%d,%d), want (%d,%d,%d)",
					i, got.Time, got.Seq, got.V, want.Time, want.Seq, want.V)
			}
			if pt != want.Time {
				t.Fatalf("op %d: peek %d, want %d", i, pt, want.Time)
			}
			now = got.Time
		} else {
			// Mix near, far, and same-cycle times; occasionally reuse a
			// stale-looking seq to hit the binary-insert path.
			tm := now + d1*d2%1000
			if op%7 == 0 {
				tm = now + d1*97 + d2*1031 // deep overflow
			}
			seq += 1 + uint64(op%5)
			s := seq
			if op%11 == 0 && seq > 40 {
				s = seq - 40
			}
			if used[[2]uint64{tm, s}] {
				continue
			}
			used[[2]uint64{tm, s}] = true
			payload++
			q.Push(tm, s, payload)
			h.push(Entry[int]{Time: tm, Seq: s, V: payload})
		}
	}
	for len(h) > 0 {
		want := h.pop()
		if got := q.Pop(); got != want {
			t.Fatalf("drain: pop (%d,%d), want (%d,%d)", got.Time, got.Seq, want.Time, want.Seq)
		}
	}
	if q.Len() != 0 {
		t.Fatalf("queue holds %d entries after drain", q.Len())
	}
}

func TestDifferentialRandomStreams(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ops := make([]byte, 3000)
		rng.Read(ops)
		for _, w := range []int{64, 256, 1024} {
			driveBoth(t, ops, w)
		}
	}
}

// FuzzVsReferenceHeap drives the calendar queue and the reference binary
// heap with the same fuzz-chosen (time, seq) stream and requires identical
// pop sequences — the property that keeps the engine's event order a pure
// function of its schedule sequence. Each stream runs at a narrow window,
// where most times overflow, and at 1024, the simulator's eventWindow.
func FuzzVsReferenceHeap(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 0, 0, 9, 200, 17})
	f.Add([]byte{0, 0, 0})
	f.Add([]byte{7, 255, 255, 0, 1, 1, 7, 254, 253, 4, 9, 9})
	f.Fuzz(func(t *testing.T, ops []byte) {
		for _, w := range []int{128, 1024} {
			driveBoth(t, ops, w)
		}
	})
}
