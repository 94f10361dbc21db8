// Package calq implements a cycle-indexed bucketed calendar queue: the
// classic discrete-event-simulation priority queue for workloads whose
// pending events cluster in a narrow time window. A ring of per-cycle
// buckets covers the active window [base, base+W); an event lands in the
// bucket its timestamp indexes (one bucket per cycle, so a bucket never
// mixes timestamps), events beyond the horizon wait in an overflow
// min-heap that is merged back into the ring when the window empties and
// re-anchors ("wraps") at the earliest overflow time. Enqueue and dequeue
// are amortized O(1) for in-window events — an append and a bitmap-guided
// bucket probe — versus the O(log n) sifts of a binary heap; far-future
// events degrade gracefully to exactly the heap cost they had before.
//
// Total order: entries are keyed by (Time, Seq) and dequeue in strictly
// ascending key order. Within a bucket all entries share one Time, so Seq
// order alone decides; pushes with ascending Seq (the common case — a
// simulation's schedule sequence is monotone) append in O(1), and an
// out-of-order Seq falls back to a binary insert. With unique (Time, Seq)
// keys the dequeue sequence is a pure function of the push sequence, so a
// simulation driven by this queue is deterministic by construction.
//
// Contract: Push times must be monotone with respect to progress — pushing
// a time earlier than the last Pop'd time (the queue's notion of "now")
// panics, exactly like scheduling an event in the past.
package calq

import "math/bits"

// Entry is one queued item: its (Time, Seq) key and the payload.
type Entry[T any] struct {
	Time uint64
	Seq  uint64
	V    T
}

// before is the (Time, Seq) total order.
func (e Entry[T]) before(f Entry[T]) bool {
	if e.Time != f.Time {
		return e.Time < f.Time
	}
	return e.Seq < f.Seq
}

// Queue is a calendar queue. The zero value is not usable; call New.
type Queue[T any] struct {
	buckets [][]Entry[T] // ring of per-cycle buckets for [base, base+window)
	occ     []uint64     // occupancy bitmap, one bit per bucket
	mask    uint64
	window  uint64 // len(buckets), power of two
	base    uint64 // window start; only Pop advances it
	read    int    // consumed prefix of the bucket holding time base
	headIdx int    // bucket index the consumed prefix applies to
	inWin   int    // live entries in the ring
	over    overHeap[T]
	size    int

	// Cached window minimum: while minOK, bucket minIdx holds the earliest
	// in-window time minTime. Lets a peek+pop pair — and every consecutive
	// pop from the same bucket — cost one bitmap probe instead of two.
	minIdx  int
	minTime uint64
	minOK   bool
}

// bucketCap is each bucket's initial capacity, carved from one shared slab
// so first appends never allocate. A bucket that outgrows its chunk falls
// back to ordinary append growth and keeps the larger array thereafter.
const bucketCap = 4

// New returns a queue whose ring covers window cycles (rounded up to a
// power of two, minimum 64). Larger windows catch more events in the O(1)
// ring at the cost of ring memory; events beyond the window ride the
// overflow heap, costing what a binary heap would have.
func New[T any](window int) *Queue[T] {
	w := 64
	for w < window {
		w <<= 1
	}
	slab := make([]Entry[T], w*bucketCap)
	buckets := make([][]Entry[T], w)
	for i := range buckets {
		buckets[i] = slab[i*bucketCap : i*bucketCap : (i+1)*bucketCap]
	}
	return &Queue[T]{
		buckets: buckets,
		occ:     make([]uint64, w/64),
		mask:    uint64(w - 1),
		window:  uint64(w),
	}
}

// Len returns the number of queued entries.
func (q *Queue[T]) Len() int { return q.size }

// Push enqueues (time, seq, v). It panics if time precedes the last Pop'd
// time: that would be scheduling an event in the past.
func (q *Queue[T]) Push(time, seq uint64, v T) {
	if time < q.base {
		panic("calq: push before the last popped time")
	}
	q.size++
	if time-q.base >= q.window {
		q.over.push(Entry[T]{Time: time, Seq: seq, V: v})
		return
	}
	i := int(time & q.mask)
	if q.minOK {
		if time < q.minTime {
			q.minIdx, q.minTime = i, time
		}
	} else if q.inWin == 0 {
		q.minIdx, q.minTime, q.minOK = i, time, true
	}
	b := q.buckets[i]
	if len(b) == 0 {
		q.occ[i>>6] |= 1 << (i & 63)
	}
	if n := len(b); n == 0 || b[n-1].Seq <= seq {
		// Monotone schedule sequence: append keeps the bucket Seq-sorted.
		q.buckets[i] = append(b, Entry[T]{Time: time, Seq: seq, V: v})
	} else {
		// Out-of-order Seq: binary-insert within the bucket's live region.
		lo := 0
		if i == q.headIdx {
			lo = q.read
		}
		at := lo
		hi := len(b)
		for at < hi {
			mid := int(uint(at+hi) >> 1)
			if b[mid].Seq <= seq {
				at = mid + 1
			} else {
				hi = mid
			}
		}
		b = append(b, Entry[T]{})
		copy(b[at+1:], b[at:])
		b[at] = Entry[T]{Time: time, Seq: seq, V: v}
		q.buckets[i] = b
	}
	q.inWin++
}

// PeekTime returns the earliest queued time without dequeuing. It never
// moves the window, so Push remains legal for any time at or after the
// last Pop.
func (q *Queue[T]) PeekTime() (uint64, bool) {
	if q.size == 0 {
		return 0, false
	}
	if q.inWin > 0 {
		if !q.minOK {
			q.minIdx, q.minTime = q.winMin()
			q.minOK = true
		}
		if q.over.len() > 0 && q.over.top().Time < q.minTime {
			return q.over.top().Time, true
		}
		return q.minTime, true
	}
	return q.over.top().Time, true
}

// Pop dequeues and returns the entry with the smallest (Time, Seq) key.
// It panics on an empty queue.
func (q *Queue[T]) Pop() Entry[T] {
	if q.size == 0 {
		panic("calq: pop from empty queue")
	}
	if q.inWin == 0 {
		q.rewindow()
	}
	if !q.minOK {
		q.minIdx, q.minTime = q.winMin()
		q.minOK = true
	}
	idx, t := q.minIdx, q.minTime
	b := q.buckets[idx]
	lo := 0
	if idx == q.headIdx {
		lo = q.read
	}
	if q.over.len() > 0 {
		if o := q.over.top(); o.Time < t || (o.Time == t && o.Seq < b[lo].Seq) {
			q.size--
			return q.over.pop()
		}
	}
	e := b[lo]
	b[lo] = Entry[T]{} // release payload references
	q.base = t         // the window start follows simulated time forward
	q.headIdx = idx
	q.read = lo + 1
	if q.read == len(b) {
		q.buckets[idx] = b[:0]
		q.read = 0
		q.occ[idx>>6] &^= 1 << (idx & 63)
		q.minOK = false
	}
	q.inWin--
	q.size--
	return e
}

// winMin locates the earliest occupied bucket at or after base, returning
// its ring index and the (single) time its entries carry. The occupancy
// bitmap makes the probe a handful of word scans even when the ring is
// sparse. Callers must ensure inWin > 0.
func (q *Queue[T]) winMin() (idx int, t uint64) {
	start := int(q.base & q.mask)
	n := len(q.occ)
	w := start >> 6
	// First word: mask off bits below the start position.
	if word := q.occ[w] >> (start & 63); word != 0 {
		d := bits.TrailingZeros64(word)
		return start + d, q.base + uint64(d)
	}
	dist := 64 - (start & 63) // ring distance covered so far
	for k := 1; k <= n; k++ {
		word := q.occ[(w+k)%n]
		if word != 0 {
			d := dist + bits.TrailingZeros64(word)
			return (start + d) & int(q.mask), q.base + uint64(d)
		}
		dist += 64
	}
	panic("calq: corrupt occupancy bitmap")
}

// rewindow re-anchors the empty ring at the earliest overflow time and
// merges every overflow entry inside the new horizon back into buckets —
// the calendar queue's "wrap". Heap pops arrive in ascending (Time, Seq)
// order, so each bucket stays Seq-sorted by construction.
func (q *Queue[T]) rewindow() {
	q.base = q.over.top().Time
	q.read = 0
	q.headIdx = 0
	// The first drained entry carries the new base time, the window minimum.
	q.minIdx, q.minTime, q.minOK = int(q.base&q.mask), q.base, true
	for q.over.len() > 0 && q.over.top().Time-q.base < q.window {
		e := q.over.pop()
		i := int(e.Time & q.mask)
		if len(q.buckets[i]) == 0 {
			q.occ[i>>6] |= 1 << (i & 63)
		}
		q.buckets[i] = append(q.buckets[i], e)
		q.inWin++
	}
}

// overHeap is the far-future overflow: a plain min-heap on (Time, Seq)
// with the sift loops moving the displaced entry through a hole — one copy
// per level instead of a swap's two.
type overHeap[T any] struct {
	h []Entry[T]
}

func (o *overHeap[T]) len() int       { return len(o.h) }
func (o *overHeap[T]) top() *Entry[T] { return &o.h[0] }

func (o *overHeap[T]) push(e Entry[T]) {
	h := append(o.h, e)
	o.h = h
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
}

func (o *overHeap[T]) pop() Entry[T] {
	h := o.h
	top := h[0]
	last := len(h) - 1
	e := h[last]
	h[last] = Entry[T]{}
	h = h[:last]
	o.h = h
	if last == 0 {
		return top
	}
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		s := l
		if r := l + 1; r < last && h[r].before(h[l]) {
			s = r
		}
		if !h[s].before(e) {
			break
		}
		h[i] = h[s]
		i = s
	}
	h[i] = e
	return top
}
