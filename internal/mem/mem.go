// Package mem implements the simulated word-addressable memory that Swarm
// programs operate on, together with the bump allocator used by workloads and
// the per-task undo logs that implement Swarm's eager version management.
//
// Addresses are byte addresses; every access touches one 8-byte word and must
// be 8-byte aligned. Memory is sparse and paged so large address spaces cost
// only what is touched.
package mem

import "fmt"

// WordSize is the size of every simulated access, in bytes.
const WordSize = 8

// LineSize is the coherence/cache line size, in bytes (Table II).
const LineSize = 64

// pageWords is the number of words per internal page (32 KB pages).
const pageWords = 1 << pageShift

// Radix page-table geometry: a word address indexes page-offset bits, then a
// page slot within a chunk, then a chunk slot in the growable root. Pages are
// 32 KB (4096 words) and chunks span 512 pages, so one chunk covers 16 MB of
// address space and the root stays a few entries for typical workloads.
const (
	pageShift  = 12 // log2 words per page
	chunkShift = 9  // log2 pages per chunk
	chunkPages = 1 << chunkShift

	// maxChunks bounds the root table at 2^22 entries (32 MB of pointers,
	// covering a 64 TB address space). Workload allocators bump-allocate
	// from 1 MB upward, so a store beyond this indicates a corrupted
	// address, and panicking beats silently allocating an absurd root.
	maxChunks = 1 << 22
)

type page = [pageWords]uint64
type chunk = [chunkPages]*page

// LineAddr returns the line-aligned address containing addr. Benchmarks use
// it to compute cache-line hints (Table I, "Cache line of vertex").
func LineAddr(addr uint64) uint64 { return addr &^ uint64(LineSize-1) }

// Memory is a sparse 64-bit word-addressable memory with a global write
// sequence counter used to order undo-log entries across tasks so that
// cascaded rollbacks restore values correctly regardless of write
// interleaving.
//
// Storage is a two-level radix page table plus a one-page inline cache:
// Load/Store on the cached page are two shifts, a mask, and one bounds-free
// array index, and even a cache miss is two array indexes — no map hashing
// anywhere on the simulator's most frequent operation. Not safe for
// concurrent use; each engine owns its Memory.
type Memory struct {
	chunks  []*chunk
	lastPN  uint64 // page number held in lastPg (valid iff lastPg != nil)
	lastPg  *page
	nextSeq uint64
	brk     uint64 // bump-allocation watermark
}

// New returns an empty memory whose allocator starts at a non-zero base so
// that address 0 is never a valid object address.
func New() *Memory {
	return &Memory{brk: 1 << 20}
}

func (m *Memory) page(addr uint64, create bool) (*page, uint64) {
	if addr%WordSize != 0 {
		panic(fmt.Sprintf("mem: unaligned access to %#x", addr))
	}
	w := addr / WordSize
	pn := w >> pageShift
	off := w & (pageWords - 1)
	if p := m.lastPg; p != nil && pn == m.lastPN {
		return p, off
	}
	ci := pn >> chunkShift
	if ci >= uint64(len(m.chunks)) {
		if !create {
			return nil, off
		}
		if ci >= maxChunks {
			panic(fmt.Sprintf("mem: address %#x beyond supported range", addr))
		}
		grown := make([]*chunk, ci+1)
		copy(grown, m.chunks)
		m.chunks = grown
	}
	ch := m.chunks[ci]
	if ch == nil {
		if !create {
			return nil, off
		}
		ch = new(chunk)
		m.chunks[ci] = ch
	}
	p := ch[pn&(chunkPages-1)]
	if p == nil {
		if !create {
			return nil, off
		}
		p = new(page)
		ch[pn&(chunkPages-1)] = p
	}
	m.lastPN, m.lastPg = pn, p
	return p, off
}

// Load returns the current (possibly speculative) value of the word at addr.
func (m *Memory) Load(addr uint64) uint64 {
	p, off := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[off]
}

// Store writes val to addr and returns the previous value together with the
// global sequence number of this write. Callers append (addr, old, seq) to
// the writing task's undo log.
func (m *Memory) Store(addr, val uint64) (old uint64, seq uint64) {
	p, off := m.page(addr, true)
	old = p[off]
	p[off] = val
	m.nextSeq++
	return old, m.nextSeq
}

// StoreRaw writes without sequencing; used only for rollback and for
// non-speculative initialization (program setup before swarm::run).
func (m *Memory) StoreRaw(addr, val uint64) {
	p, off := m.page(addr, true)
	p[off] = val
}

// Alloc reserves n bytes and returns the base address, 64-byte aligned so
// objects never straddle allocation boundaries unintentionally.
func (m *Memory) Alloc(n uint64) uint64 {
	base := (m.brk + LineSize - 1) &^ uint64(LineSize-1)
	m.brk = base + n
	return base
}

// AllocWords reserves n 8-byte words.
func (m *Memory) AllocWords(n uint64) uint64 { return m.Alloc(n * WordSize) }

// UndoEntry records one speculative write: the address, the value it
// clobbered, and the global order of the write.
type UndoEntry struct {
	Addr uint64
	Old  uint64
	Seq  uint64
}

// UndoLog is a task's eager-versioning log. Entries are naturally in
// ascending Seq order because a task appends as it writes.
type UndoLog struct {
	entries []UndoEntry
}

// Append records a write.
func (l *UndoLog) Append(e UndoEntry) { l.entries = append(l.entries, e) }

// Len returns the number of logged writes.
func (l *UndoLog) Len() int { return len(l.entries) }

// Entries exposes the log for merged rollbacks.
func (l *UndoLog) Entries() []UndoEntry { return l.entries }

// Reset clears the log for task re-execution.
func (l *UndoLog) Reset() { l.entries = l.entries[:0] }

// SetEntries replaces the log's backing slice: buf's elements become the
// log's entries and its capacity the log's storage. Descriptor pools use it
// to grow a log inside their slabs and to shed an oversized buffer.
func (l *UndoLog) SetEntries(buf []UndoEntry) { l.entries = buf }

// RollbackInto restores the undo entries of a set of aborting tasks and
// resets their logs. Entries must be restored in descending global sequence
// order so that overlapping writes by different tasks unwind to the exact
// pre-speculation values. Each log is individually Seq-sorted ascending (a
// task appends as it writes), so the descending order is a k-way merge over
// the log tails — O(n log k), and a plain backward walk for one log.
//
// The merged log goes into scratch's capacity, and the (possibly grown)
// buffer is returned so a long-lived caller — the engine's abort path — can
// amortize the allocation across aborts.
func RollbackInto(m *Memory, logs []*UndoLog, scratch []UndoEntry) []UndoEntry {
	all := mergeUndoDesc(scratch[:0], logs)
	for _, e := range all {
		m.StoreRaw(e.Addr, e.Old)
	}
	for _, l := range logs {
		l.Reset()
	}
	return all
}

// undoCursor walks one log from its tail (its largest Seq) backward.
type undoCursor struct {
	entries []UndoEntry
	pos     int
}

// mergeUndoDesc appends the entries of all logs to dst in descending Seq
// order via a k-way merge: a max-heap of per-log tail cursors keyed by the
// cursor's current Seq. Seq values are globally unique, so the merge order
// is total and deterministic.
func mergeUndoDesc(dst []UndoEntry, logs []*UndoLog) []UndoEntry {
	var hbuf [16]undoCursor
	h := hbuf[:0]
	if len(logs) > len(hbuf) {
		h = make([]undoCursor, 0, len(logs))
	}
	for _, l := range logs {
		if n := len(l.entries); n > 0 {
			h = append(h, undoCursor{entries: l.entries, pos: n - 1})
			// Sift up.
			for i := len(h) - 1; i > 0; {
				p := (i - 1) / 2
				if h[p].seq() >= h[i].seq() {
					break
				}
				h[p], h[i] = h[i], h[p]
				i = p
			}
		}
	}
	for len(h) > 0 {
		c := &h[0]
		dst = append(dst, c.entries[c.pos])
		if c.pos--; c.pos < 0 {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		// Sift down.
		for i := 0; ; {
			l, r := 2*i+1, 2*i+2
			s := i
			if l < len(h) && h[l].seq() > h[s].seq() {
				s = l
			}
			if r < len(h) && h[r].seq() > h[s].seq() {
				s = r
			}
			if s == i {
				break
			}
			h[i], h[s] = h[s], h[i]
			i = s
		}
	}
	return dst
}

func (c *undoCursor) seq() uint64 { return c.entries[c.pos].Seq }

// Pool is a tiny LIFO free list for recycling heap objects on simulation
// hot paths. Fresh objects come from slabs of 32, so a run's peak live
// count costs one allocation per slab rather than one per object (a slab
// stays reachable while any object in it is live — fine for engine-scoped
// pools, whose free lists pin recycled objects anyway). It is not safe for
// concurrent use: each engine owns its pools, which keeps parallel sweep
// runs free of shared state.
type Pool[T any] struct {
	free []*T
	next []T // unhanded tail of the current slab
}

// Get returns a recycled object or a fresh zero value from the current
// slab. Recycled objects come back exactly as they were Put; callers reset
// the fields they use (and typically want to keep slice capacity).
func (p *Pool[T]) Get() *T {
	if n := len(p.free); n > 0 {
		t := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		return t
	}
	if len(p.next) == 0 {
		p.next = make([]T, 32)
	}
	t := &p.next[0]
	p.next = p.next[1:]
	return t
}

// Put returns an object to the free list. The caller must guarantee no
// other live reference to it remains.
func (p *Pool[T]) Put(t *T) {
	p.free = append(p.free, t)
}
