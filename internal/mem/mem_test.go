package mem

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestLoadStoreRoundTrip(t *testing.T) {
	m := New()
	a := m.AllocWords(4)
	m.StoreRaw(a, 7)
	m.StoreRaw(a+8, 9)
	if got := m.Load(a); got != 7 {
		t.Fatalf("Load = %d, want 7", got)
	}
	if got := m.Load(a + 8); got != 9 {
		t.Fatalf("Load = %d, want 9", got)
	}
	if got := m.Load(a + 16); got != 0 {
		t.Fatalf("untouched word = %d, want 0", got)
	}
}

func TestUnalignedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unaligned access did not panic")
		}
	}()
	New().Load(3)
}

func TestAllocAlignment(t *testing.T) {
	m := New()
	for i := 0; i < 100; i++ {
		a := m.Alloc(uint64(i)*3 + 1)
		if a%LineSize != 0 {
			t.Fatalf("allocation %d at %#x not line-aligned", i, a)
		}
	}
}

func TestAllocDisjoint(t *testing.T) {
	m := New()
	a := m.AllocWords(8)
	b := m.AllocWords(8)
	if b < a+8*WordSize {
		t.Fatalf("allocations overlap: a=%#x b=%#x", a, b)
	}
}

func TestStoreSequencesMonotonic(t *testing.T) {
	m := New()
	a := m.AllocWords(1)
	_, s1 := m.Store(a, 1)
	_, s2 := m.Store(a, 2)
	if s2 <= s1 {
		t.Fatalf("sequence numbers not increasing: %d then %d", s1, s2)
	}
}

func TestSingleLogRollback(t *testing.T) {
	m := New()
	a := m.AllocWords(2)
	m.StoreRaw(a, 10)
	var log UndoLog
	old, seq := m.Store(a, 99)
	log.Append(UndoEntry{Addr: a, Old: old, Seq: seq})
	old, seq = m.Store(a+8, 55)
	log.Append(UndoEntry{Addr: a + 8, Old: old, Seq: seq})
	RollbackInto(m, []*UndoLog{&log}, nil)
	if m.Load(a) != 10 || m.Load(a+8) != 0 {
		t.Fatalf("rollback failed: got %d,%d want 10,0", m.Load(a), m.Load(a+8))
	}
	if log.Len() != 0 {
		t.Fatal("rollback must reset the log")
	}
}

// TestInterleavedRollback checks the critical eager-versioning property:
// when two speculative tasks write the same addresses in interleaved order,
// rolling both back restores the exact original values.
func TestInterleavedRollback(t *testing.T) {
	m := New()
	a := m.AllocWords(1)
	m.StoreRaw(a, 1)
	var la, lb UndoLog
	old, seq := m.Store(a, 2) // task A writes
	la.Append(UndoEntry{a, old, seq})
	old, seq = m.Store(a, 3) // task B overwrites
	lb.Append(UndoEntry{a, old, seq})
	old, seq = m.Store(a, 4) // task A writes again
	la.Append(UndoEntry{a, old, seq})
	RollbackInto(m, []*UndoLog{&la, &lb}, nil)
	if got := m.Load(a); got != 1 {
		t.Fatalf("interleaved rollback: got %d, want 1", got)
	}
}

// TestRandomRollbackProperty: any random interleaving of speculative writes
// by k tasks, rolled back together, restores the initial state exactly, and
// RollbackInto applies the merged log in strictly descending Seq order. The
// log counts cover one log, two, a few, and more than the merge's 16-cursor
// stack buffer holds.
func TestRandomRollbackProperty(t *testing.T) {
	for _, k := range []int{1, 2, 4, 17} {
		f := func(seed int64) bool {
			rng := rand.New(rand.NewSource(seed))
			m := New()
			const words = 16
			base := m.AllocWords(words)
			initial := make([]uint64, words)
			for i := range initial {
				initial[i] = rng.Uint64() % 100
				m.StoreRaw(base+uint64(i*WordSize), initial[i])
			}
			logs := make([]*UndoLog, k)
			for i := range logs {
				logs[i] = &UndoLog{}
			}
			for n := 0; n < 200; n++ {
				task := rng.Intn(len(logs))
				w := uint64(rng.Intn(words))
				addr := base + w*WordSize
				old, seq := m.Store(addr, rng.Uint64())
				logs[task].Append(UndoEntry{addr, old, seq})
			}
			merged := RollbackInto(m, logs, nil)
			if len(merged) != 200 {
				return false
			}
			for i := 1; i < len(merged); i++ {
				if merged[i-1].Seq <= merged[i].Seq {
					return false
				}
			}
			for i, want := range initial {
				if m.Load(base+uint64(i*WordSize)) != want {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatalf("%d logs: %v", k, err)
		}
	}
}

// TestPartialRollback: rolling back only the later task must leave the
// earlier task's value in place when they wrote disjoint addresses.
func TestPartialRollback(t *testing.T) {
	m := New()
	a, b := m.AllocWords(1), m.AllocWords(1)
	var la, lb UndoLog
	old, seq := m.Store(a, 11)
	la.Append(UndoEntry{a, old, seq})
	old, seq = m.Store(b, 22)
	lb.Append(UndoEntry{b, old, seq})
	RollbackInto(m, []*UndoLog{&lb}, nil)
	if m.Load(a) != 11 {
		t.Fatal("partial rollback clobbered an unrelated task's write")
	}
	if m.Load(b) != 0 {
		t.Fatal("partial rollback did not undo the aborted task's write")
	}
}

func TestLineAddr(t *testing.T) {
	if LineAddr(0x1234) != 0x1200 {
		t.Fatalf("LineAddr(0x1234) = %#x", LineAddr(0x1234))
	}
	if LineAddr(64) != 64 || LineAddr(63) != 0 {
		t.Fatal("LineAddr boundary wrong")
	}
}

func TestLargeUndoSort(t *testing.T) {
	// One long log: the merge walks it backward in a single pass.
	m := New()
	base := m.AllocWords(8)
	var log UndoLog
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		addr := base + uint64(rng.Intn(8))*WordSize
		old, seq := m.Store(addr, uint64(i+1))
		log.Append(UndoEntry{addr, old, seq})
	}
	RollbackInto(m, []*UndoLog{&log}, nil)
	for i := 0; i < 8; i++ {
		if m.Load(base+uint64(i*WordSize)) != 0 {
			t.Fatalf("word %d not restored to 0", i)
		}
	}
}

// footprint returns the bytes of memory m has materialized pages for.
func footprint(m *Memory) uint64 {
	pages := 0
	for _, ch := range m.chunks {
		if ch == nil {
			continue
		}
		for _, p := range ch {
			if p != nil {
				pages++
			}
		}
	}
	return uint64(pages) * pageWords * WordSize
}

func TestFootprintGrows(t *testing.T) {
	m := New()
	f0 := footprint(m)
	m.StoreRaw(m.AllocWords(1), 1)
	if footprint(m) <= f0 {
		t.Fatal("footprint did not grow after touching memory")
	}
}
