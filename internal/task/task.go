// Package task defines Swarm task descriptors, the total speculative order,
// and the per-tile task and commit queues that together implement the
// "task-level reorder buffer" of Sec. II-B, including the spill coalescers
// that free task-queue entries under pressure.
package task

import (
	"math/bits"
	"sort"

	"swarmhints/internal/hashutil"
	"swarmhints/internal/mem"
)

// FnID identifies a registered task function.
type FnID int

// HintKind distinguishes the three values the enqueue hint field can take
// (Sec. III-A).
type HintKind uint8

const (
	// HintInt is an explicit 64-bit integer hint.
	HintInt HintKind = iota
	// HintNone is NOHINT: the programmer does not know the data accessed.
	HintNone
	// HintSame is SAMEHINT: the child inherits the parent's hint.
	HintSame
)

// State is the task lifecycle state.
type State uint8

const (
	// Idle tasks sit in a task queue awaiting dispatch.
	Idle State = iota
	// Running tasks occupy a core.
	Running
	// Finished tasks await commit in the commit queue.
	Finished
	// Committed tasks are done and removed from all queues.
	Committed
	// Spilled tasks were moved to memory to free task-queue entries.
	Spilled
	// Squashed tasks were discarded because an ancestor aborted.
	Squashed
)

// Order is Swarm's total speculative order: timestamp first, creation
// sequence as the tie-break ("If multiple tasks have equal timestamp, Swarm
// chooses an order among them", Sec. II-A).
type Order struct {
	TS uint64
	ID uint64
}

// Before reports whether o precedes p in speculative order.
func (o Order) Before(p Order) bool {
	if o.TS != p.TS {
		return o.TS < p.TS
	}
	return o.ID < p.ID
}

// MaxOrder is later than any real task order.
var MaxOrder = Order{TS: ^uint64(0), ID: ^uint64(0)}

// Task is one speculative task descriptor plus the speculative state the
// simulator tracks for it across its lifetime.
type Task struct {
	ID       uint64
	Fn       FnID
	TS       uint64
	Args     []uint64
	Hint     uint64
	HintKind HintKind
	HintHash uint16 // carried through life, compared at dispatch (Sec. III-B)
	Bucket   int    // LBHints bucket (Sec. VI)

	State State
	Tile  int // current home tile
	Core  int // core while running

	Parent   *Task
	Children []*Task

	// Speculative execution state for the current attempt.
	Undo      mem.UndoLog
	Reads     []uint64 // word addresses
	Writes    []uint64
	RunCycles uint64 // cycles of the current attempt
	Aborts    int    // times this task has been aborted and retried

	// SeenStamp and AbortStamp are conflict-index query epochs (see
	// internal/conflict): a task is in the current accessor-dedup or
	// abort-closure set iff its stamp equals the index's current epoch.
	// Scratch state, meaningful only to the index that stamped it.
	SeenStamp  uint64
	AbortStamp uint64

	// DispatchCycle is when the current attempt started.
	DispatchCycle uint64
	// qpos is the task's slot in its tile's order-indexed idle ring
	// (-1 while not idle). Maintained by orderRing only.
	qpos int
}

// Ord returns the task's speculative order.
func (t *Task) Ord() Order { return Order{TS: t.TS, ID: t.ID} }

// HasHint reports whether the task carries a usable integer hint.
func (t *Task) HasHint() bool { return t.HintKind == HintInt }

// ResetAttempt clears per-attempt speculative state for re-execution.
func (t *Task) ResetAttempt() {
	t.Undo.Reset()
	t.Reads = t.Reads[:0]
	t.Writes = t.Writes[:0]
	t.RunCycles = 0
	t.Children = t.Children[:0]
}

// init fills in a descriptor, resolving SAMEHINT against the parent and
// precomputing the hashed hint. The receiver may be fresh or recycled; every
// field is (re)set, with slice capacities reused.
func (t *Task) init(id uint64, fn FnID, ts uint64, kind HintKind, hint uint64, parent *Task, args []uint64) {
	t.ID, t.Fn, t.TS = id, fn, ts
	t.Args = append(t.Args[:0], args...)
	t.Hint, t.HintKind, t.HintHash = hint, kind, 0
	t.Bucket = 0
	t.State, t.Tile, t.Core = Idle, 0, 0
	t.Parent = parent
	t.Children = t.Children[:0]
	t.Undo.Reset()
	t.Reads, t.Writes = t.Reads[:0], t.Writes[:0]
	t.SeenStamp, t.AbortStamp = 0, 0
	t.RunCycles, t.Aborts = 0, 0
	t.DispatchCycle = 0
	t.qpos = -1
	if kind == HintSame && parent != nil && parent.HintKind == HintInt {
		// Inherit the parent's integer hint outright.
		t.Hint = parent.Hint
		t.HintKind = HintInt
	}
	// An unresolved HintSame (parent had no integer hint) stays HintSame:
	// the task is queued to the local tile but carries no hashed hint.
	if t.HintKind == HintInt {
		t.HintHash = hashutil.HintHash16(t.Hint)
	}
}

// Pool recycles Task descriptors through a free list so the engine's
// enqueue hot path stops allocating one Task per created task. A
// descriptor's Args, Children, Reads, Writes and undo-log buffers come from
// per-pool slabs as they fill (Get, AddRead, AddWrite, AddChild), and a
// recycled one keeps its buffers, so steady-state task creation and
// execution allocate nothing. Not safe for concurrent use: each engine
// owns one, keeping parallel sweep runs free of shared state.
type Pool struct {
	p     mem.Pool[Task]
	words slab[uint64]
	kids  slab[*Task]
	undo  slab[mem.UndoEntry]
}

// maxRetained bounds the buffer capacity a recycled descriptor keeps (per
// buffer, in elements): Put drops larger ones, so one large task cannot
// pin its buffers for the rest of the run.
const maxRetained = 256

// Get returns an initialized descriptor, recycled when possible. The args
// slice is copied into the descriptor's own (reused) backing array, so the
// caller's slice does not escape.
func (pl *Pool) Get(id uint64, fn FnID, ts uint64, kind HintKind, hint uint64, parent *Task, args []uint64) *Task {
	t := pl.p.Get()
	for cap(t.Args) < len(args) {
		t.Args = pl.words.grow(t.Args)
	}
	t.init(id, fn, ts, kind, hint, parent, args)
	return t
}

// AddRead records a read of addr in t's current attempt.
func (pl *Pool) AddRead(t *Task, addr uint64) {
	t.Reads = pl.words.push(t.Reads, addr)
}

// AddWrite records a write of addr, undoing to u, in t's current attempt.
func (pl *Pool) AddWrite(t *Task, addr uint64, u mem.UndoEntry) {
	t.Undo.SetEntries(pl.undo.push(t.Undo.Entries(), u))
	t.Writes = pl.words.push(t.Writes, addr)
}

// AddChild records child as created by parent's current attempt.
func (pl *Pool) AddChild(parent, child *Task) {
	parent.Children = pl.kids.push(parent.Children, child)
}

// Put recycles a descriptor. The caller must guarantee nothing references
// it anymore: the engine retires committed tasks only after the GVT round
// that committed them has cleared every child's Parent pointer.
func (pl *Pool) Put(t *Task) {
	t.Args, t.Reads, t.Writes = retain(t.Args), retain(t.Reads), retain(t.Writes)
	t.Children = retain(t.Children)
	t.Undo.SetEntries(retain(t.Undo.Entries()))
	pl.p.Put(t)
}

// retain returns buf, or nil when its capacity exceeds maxRetained.
func retain[T any](buf []T) []T {
	if cap(buf) > maxRetained {
		return nil
	}
	return buf
}

// slab hands out descriptor buffers of 1 to carveMax elements, in
// power-of-two sizes carved from shared backing arrays the way calq carves
// its buckets, so one allocation serves many descriptors. A buffer that
// outgrows its piece moves to the next size and hands the piece back for
// the next buffer of that size: buffers grow as append would grow them,
// without an allocation each and without pinning outgrown pieces. Larger
// buffers grow on the heap like any append.
type slab[T any] struct {
	free  []T              // uncarved tail of the current backing array
	spare [slabSizes][][]T // handed-back pieces; spare[k] holds capacity 1<<k
}

const (
	slabSizes = 5                    // piece capacities 1, 2, 4, 8, 16
	carveMax  = 1 << (slabSizes - 1) // largest piece
	slabLen   = 512                  // elements per backing array
)

// grow returns an empty buffer with twice buf's capacity (at least one
// element), handing buf's piece back when it is a slab size.
func (s *slab[T]) grow(buf []T) []T {
	c := cap(buf)
	if c > 0 && c <= carveMax && c&(c-1) == 0 {
		k := bits.TrailingZeros(uint(c))
		s.spare[k] = append(s.spare[k], buf[:0])
	}
	if c >= carveMax {
		return make([]T, 0, 2*c)
	}
	k := bits.Len(uint(c)) // the size above c: c is 0 or a power of two
	if n := len(s.spare[k]); n > 0 {
		p := s.spare[k][n-1]
		s.spare[k] = s.spare[k][:n-1]
		return p
	}
	n := 1 << k
	if len(s.free) < n {
		s.free = make([]T, slabLen)
	}
	p := s.free[:0:n]
	s.free = s.free[n:]
	return p
}

// push appends v to buf, growing a full buffer through grow.
func (s *slab[T]) push(buf []T, v T) []T {
	if len(buf) == cap(buf) {
		buf = append(s.grow(buf), buf...)
	}
	return append(buf, v)
}

// DescriptorBytes is the task descriptor size sent over the NoC: function
// pointer (8) + 64-bit timestamp (8) + up to three 64-bit args (24) + 16-bit
// hashed hint rounded up (Sec. III-B overheads).
func DescriptorBytes(t *Task) int {
	n := 8 + 8 + 8*len(t.Args) + 2
	if n < 26 {
		n = 26
	}
	return n
}

// ordBefore is Ord().Before with the Order construction flattened out: the
// heap sift loops below compare through it on every level, so it must stay
// a leaf call that inlines to two integer compares.
func (t *Task) ordBefore(u *Task) bool {
	if t.TS != u.TS {
		return t.TS < u.TS
	}
	return t.ID < u.ID
}

// orderRing is the tile's order-indexed idle structure: every idle task,
// kept fully sorted by speculative order in a power-of-two circular
// buffer. Keeping the set sorted moves cost from the engine's read paths
// to its (much rarer) mutations: the earliest task is a load, the
// serialization walk over idle tasks is a linear scan with no per-visit
// heap bookkeeping, and spill-victim selection reads the latest-order
// tasks straight off the back. An insert binary-searches its rank and
// shifts whichever side of the ring is shorter — and the engine's access
// pattern makes that shift almost always empty: freshly created tasks
// carry the latest orders (append at the back), while aborted retries and
// refills carry the earliest (prepend at the front). Order keys are
// unique, so the layout is a pure function of the mutation sequence and
// engine determinism is preserved by construction.
type orderRing struct {
	buf  []*Task // power-of-two ring; live slots are [head, head+n)
	head int     // buf index of the earliest-order task
	n    int
}

func (r *orderRing) len() int { return r.n }

// at returns the task with the i-th smallest order. Callers guarantee
// 0 <= i < n.
func (r *orderRing) at(i int) *Task { return r.buf[(r.head+i)&(len(r.buf)-1)] }

// grow doubles the ring, relaying the live window to the front.
func (r *orderRing) grow() {
	c := len(r.buf) * 2
	if c == 0 {
		c = 16
	}
	nb := make([]*Task, c)
	for i := 0; i < r.n; i++ {
		t := r.at(i)
		nb[i] = t
		t.qpos = i
	}
	r.buf = nb
	r.head = 0
}

// rank returns how many queued tasks precede t in speculative order.
func (r *orderRing) rank(t *Task) int {
	lo, hi := 0, r.n
	mask := len(r.buf) - 1
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.buf[(r.head+mid)&mask].ordBefore(t) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// push inserts t at its order rank, shifting the shorter side of the ring.
func (r *orderRing) push(t *Task) {
	if r.n == len(r.buf) {
		r.grow()
	}
	mask := len(r.buf) - 1
	rk := r.rank(t)
	if rk*2 <= r.n {
		r.head = (r.head - 1) & mask
		for i := 0; i < rk; i++ {
			p := (r.head + i) & mask
			u := r.buf[(p+1)&mask]
			r.buf[p] = u
			u.qpos = p
		}
	} else {
		for i := r.n; i > rk; i-- {
			p := (r.head + i) & mask
			u := r.buf[(p-1)&mask]
			r.buf[p] = u
			u.qpos = p
		}
	}
	p := (r.head + rk) & mask
	r.buf[p] = t
	t.qpos = p
	r.n++
}

// remove extracts t (a no-op when t is not queued), closing the gap from
// whichever end is nearer.
func (r *orderRing) remove(t *Task) {
	if t.qpos < 0 {
		return
	}
	mask := len(r.buf) - 1
	rk := (t.qpos - r.head) & mask
	if rk*2 <= r.n {
		for i := rk; i > 0; i-- {
			p := (r.head + i) & mask
			u := r.buf[(p-1)&mask]
			r.buf[p] = u
			u.qpos = p
		}
		r.buf[r.head] = nil
		r.head = (r.head + 1) & mask
	} else {
		for i := rk; i < r.n-1; i++ {
			p := (r.head + i) & mask
			u := r.buf[(p+1)&mask]
			r.buf[p] = u
			u.qpos = p
		}
		r.buf[(r.head+r.n-1)&mask] = nil
	}
	r.n--
	t.qpos = -1
}

// Queue is one tile's task unit storage: every task physically resident on
// the tile (idle, running, or finished) counts against the task-queue
// capacity; finished tasks additionally occupy commit-queue entries.
type Queue struct {
	tile       int
	capacity   int
	commitCap  int
	idle       orderRing
	resident   int // idle + running + finished tasks on this tile
	commitUsed int
	// spillBuffer holds tasks spilled to memory, kept sorted descending by
	// speculative order (earliest task at the end) as an invariant: Spill
	// merges its sorted batch in, SpillDirect binary-inserts, and Refill
	// pops earliest-first from the tail — so no path re-sorts the whole
	// buffer per coalescer firing. Squashed tasks linger (state-marked)
	// until Refill drops them, which does not disturb the order.
	spillBuffer []*Task
	listScratch []*Task // reused for Spill/Refill result lists
}

// NewQueue builds a tile queue with the given task-queue and commit-queue
// capacities (entries, already multiplied by cores/tile).
func NewQueue(tile, capacity, commitCap int) *Queue {
	return &Queue{tile: tile, capacity: capacity, commitCap: commitCap}
}

// Resident returns the number of resident tasks.
func (q *Queue) Resident() int { return q.resident }

// IdleCount returns the number of dispatchable tasks.
func (q *Queue) IdleCount() int { return q.idle.len() }

// SpilledCount returns the number of tasks spilled to memory.
func (q *Queue) SpilledCount() int { return len(q.spillBuffer) }

// Full reports whether a new task cannot be accepted.
func (q *Queue) Full() bool { return q.resident >= q.capacity }

// NearlyFull reports whether occupancy reached the coalescer threshold.
func (q *Queue) NearlyFull(thresholdPct int) bool {
	return q.resident*100 >= q.capacity*thresholdPct
}

// CommitSlotFree reports whether a finished task could be accepted.
func (q *Queue) CommitSlotFree() bool { return q.commitUsed < q.commitCap }

// CommitUsed returns occupied commit-queue entries.
func (q *Queue) CommitUsed() int { return q.commitUsed }

// Enqueue accepts an idle task. Returns false when the queue is full.
func (q *Queue) Enqueue(t *Task) bool {
	if q.Full() {
		return false
	}
	t.State = Idle
	t.Tile = q.tile
	q.idle.push(t)
	q.resident++
	return true
}

// PeekEarliest returns the earliest-order idle task without removing it.
func (q *Queue) PeekEarliest() *Task {
	if q.idle.n == 0 {
		return nil
	}
	return q.idle.buf[q.idle.head]
}

// IdleInOrder iterates idle tasks in speculative order, calling fn until it
// returns false. Used by dispatch to skip hint-serialized candidates
// (Sec. III-B). The idle ring is already order-sorted, so the walk is a
// plain read-only scan — O(1) per visited task with no scratch state, even
// under heavy serialization (every idle task skipped, the contended worst
// case). fn must not mutate the queue.
func (q *Queue) IdleInOrder(fn func(*Task) bool) {
	n := q.idle.n
	if n == 0 {
		return
	}
	mask := len(q.idle.buf) - 1
	for i := 0; i < n; i++ {
		if !fn(q.idle.buf[(q.idle.head+i)&mask]) {
			return
		}
	}
}

// Dispatch removes an idle task for execution on a core, reserving its
// commit-queue entry up front so a finished task always has somewhere to
// hold its speculative state. Callers must check CommitSlotFree first.
func (q *Queue) Dispatch(t *Task, core int) {
	q.idle.remove(t)
	t.State = Running
	t.Core = core
	q.commitUsed++
}

// Finish marks a running task as finished; its commit-queue entry was
// reserved at dispatch.
func (q *Queue) Finish(t *Task) {
	t.State = Finished
}

// Commit removes a finished task from the tile entirely.
func (q *Queue) Commit(t *Task) {
	t.State = Committed
	q.commitUsed--
	q.resident--
}

// Requeue returns an aborted running or finished task to idle for retry,
// freeing its commit slot.
func (q *Queue) Requeue(t *Task) {
	q.commitUsed--
	t.State = Idle
	t.Aborts++
	q.idle.push(t)
}

// Squash discards a task whose ancestor aborted (the ancestor re-creates it
// when it re-runs). An idle task leaves the ring, a running or finished one
// frees its commit slot, and a spilled one is only marked: Refill drops it
// from the spill buffer.
func (q *Queue) Squash(t *Task) {
	switch t.State {
	case Idle:
		q.idle.remove(t)
		q.resident--
	case Running, Finished:
		q.commitUsed--
		q.resident--
	}
	t.State = Squashed
}

// SpillDirect sends a brand-new task straight to the spill buffer, used
// when the task queue is exhausted and nothing is spillable: the descriptor
// overflows to memory rather than stalling the enqueuer forever. The task
// is binary-inserted to keep the buffer's descending order.
func (q *Queue) SpillDirect(t *Task) {
	t.State = Spilled
	t.Tile = q.tile
	// First index whose task is earlier than t; t belongs right before it.
	i := sort.Search(len(q.spillBuffer), func(i int) bool {
		return q.spillBuffer[i].ordBefore(t)
	})
	q.spillBuffer = append(q.spillBuffer, nil)
	copy(q.spillBuffer[i+1:], q.spillBuffer[i:])
	q.spillBuffer[i] = t
}

// RemoveIdle extracts an idle task (for stealing) without squashing it.
func (q *Queue) RemoveIdle(t *Task) {
	q.idle.remove(t)
	q.resident--
}

// Spill moves up to max idle tasks with the latest orders out to memory,
// preferring tasks whose parent has committed or that have no live parent
// (Sec. II-B). Selection reads the order-sorted idle ring from the latest
// end — O(batch) plus any unspillable tasks skipped over, instead of the
// full scan-and-sort over every idle task the heap needed per coalescer
// firing. It returns the spilled tasks (descending order, the spill
// buffer's invariant) so the caller can charge cycles and traffic; the
// slice is scratch reused by the next Spill or Refill.
func (q *Queue) Spill(max int) []*Task {
	if max <= 0 || q.idle.n == 0 {
		return nil
	}
	cands := q.listScratch[:0]
	defer func() { q.listScratch = cands[:0] }()
	for i := q.idle.n - 1; i >= 0 && len(cands) < max; i-- {
		t := q.idle.at(i)
		if t.Parent == nil || t.Parent.State == Committed || t.Parent.State == Finished || t.Parent.State == Running {
			cands = append(cands, t)
		}
	}
	if len(cands) == 0 {
		return nil
	}
	for _, t := range cands {
		q.idle.remove(t)
		q.resident--
		t.State = Spilled
	}
	q.mergeSpill(cands)
	return cands
}

// mergeSpill merges a descending-sorted batch into the (also descending)
// spill buffer in one backward pass: O(buffer+batch) worst case, and O(batch)
// when the batch's orders all follow the buffered ones — the common case, as
// spills take the latest orders and refills drain the earliest. Reads come
// from the batch slice (separate backing array), so overwriting the buffer's
// grown tail is safe.
func (q *Queue) mergeSpill(batch []*Task) {
	n := len(q.spillBuffer)
	q.spillBuffer = append(q.spillBuffer, batch...)
	if n == 0 {
		return
	}
	i, j := n-1, len(batch)-1
	for w := len(q.spillBuffer) - 1; j >= 0; w-- {
		if i >= 0 && q.spillBuffer[i].ordBefore(batch[j]) {
			q.spillBuffer[w] = q.spillBuffer[i]
			i--
		} else {
			q.spillBuffer[w] = batch[j]
			j--
		}
	}
}

// Refill moves up to max spilled tasks back into the queue while space
// allows, earliest order first — the buffer's sorted invariant puts them at
// the tail, so no re-sort happens here. It returns the refilled tasks; the
// slice is scratch reused by the next Spill or Refill.
func (q *Queue) Refill(max int) []*Task {
	if len(q.spillBuffer) == 0 {
		return nil
	}
	back := q.listScratch[:0]
	defer func() { q.listScratch = back[:0] }()
	for len(back) < max && len(q.spillBuffer) > 0 && !q.Full() {
		t := q.spillBuffer[len(q.spillBuffer)-1]
		if t.State == Squashed { // parent aborted while spilled
			q.spillBuffer = q.spillBuffer[:len(q.spillBuffer)-1]
			continue
		}
		q.spillBuffer = q.spillBuffer[:len(q.spillBuffer)-1]
		t.State = Idle
		q.idle.push(t)
		q.resident++
		back = append(back, t)
	}
	return back
}

// EarliestUncommitted returns the earliest order among this tile's
// unfinished tasks (idle, spilled, and the given running ones), or
// MaxOrder. The GVT arbiter aggregates this across tiles; finished tasks
// wait on GVT rather than hold it back.
func (q *Queue) EarliestUncommitted(running []*Task) Order {
	best := MaxOrder
	if q.idle.n > 0 && q.idle.buf[q.idle.head].Ord().Before(best) {
		best = q.idle.buf[q.idle.head].Ord()
	}
	// The spill buffer is sorted descending, so its earliest live task is
	// the last one still Spilled (squashed entries linger until dropped).
	for i := len(q.spillBuffer) - 1; i >= 0; i-- {
		if t := q.spillBuffer[i]; t.State == Spilled {
			if t.Ord().Before(best) {
				best = t.Ord()
			}
			break
		}
	}
	for _, t := range running {
		if t != nil && t.Ord().Before(best) {
			best = t.Ord()
		}
	}
	return best
}
