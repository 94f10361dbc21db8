package mem

import (
	"math/rand"
	"sort"
	"testing"
)

// TestRadixVsMapReference drives random aligned loads and stores against a
// plain-map reference model, mixing page-local runs (inline-cache hits) with
// jumps across page and chunk boundaries.
func TestRadixVsMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := New()
	ref := map[uint64]uint64{}
	const pageBytes = pageWords * WordSize
	const chunkBytes = chunkPages * pageBytes
	// Anchor addresses straddling interesting boundaries.
	anchors := []uint64{
		0,
		pageBytes - WordSize, pageBytes, pageBytes + WordSize,
		chunkBytes - WordSize, chunkBytes, chunkBytes + WordSize,
		3*chunkBytes + 5*pageBytes,
	}
	addr := func() uint64 {
		base := anchors[rng.Intn(len(anchors))]
		return base + uint64(rng.Intn(64))*WordSize
	}
	for step := 0; step < 50_000; step++ {
		a := addr()
		if rng.Intn(2) == 0 {
			v := rng.Uint64()
			m.StoreRaw(a, v)
			ref[a] = v
		} else if got := m.Load(a); got != ref[a] {
			t.Fatalf("step %d: Load(%#x) = %d, want %d", step, a, got, ref[a])
		}
	}
	for a, want := range ref {
		if got := m.Load(a); got != want {
			t.Fatalf("final Load(%#x) = %d, want %d", a, got, want)
		}
	}
}

// TestLoadDoesNotAllocatePages pins the sparse property: loads of untouched
// memory return zero without materializing pages or growing the footprint.
func TestLoadDoesNotAllocatePages(t *testing.T) {
	m := New()
	f0 := footprint(m)
	for _, a := range []uint64{0, 1 << 25, 1 << 35, 7 * chunkPages * pageWords * WordSize} {
		if got := m.Load(a); got != 0 {
			t.Fatalf("Load(%#x) = %d, want 0", a, got)
		}
	}
	if footprint(m) != f0 {
		t.Fatal("loads of untouched memory allocated pages")
	}
}

// TestInlineCacheInvariant alternates between two pages so every access
// misses the one-page inline cache, then runs within one page so every
// access hits it; both patterns must read back identical data.
func TestInlineCacheInvariant(t *testing.T) {
	m := New()
	const pageBytes = pageWords * WordSize
	a, b := uint64(0), uint64(pageBytes)
	for i := uint64(0); i < 128; i++ {
		m.StoreRaw(a+i*WordSize, i+1)
		m.StoreRaw(b+i*WordSize, i+1000)
	}
	for i := uint64(0); i < 128; i++ {
		if m.Load(a+i*WordSize) != i+1 || m.Load(b+i*WordSize) != i+1000 {
			t.Fatalf("alternating-page readback wrong at word %d", i)
		}
	}
	for i := uint64(0); i < 128; i++ {
		if m.Load(a+i*WordSize) != i+1 {
			t.Fatalf("same-page readback wrong at word %d", i)
		}
	}
}

func TestOutOfRangeStorePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("store beyond the supported address range did not panic")
		}
	}()
	New().StoreRaw(1<<60, 1)
}

// TestKWayMergeMatchesSort checks RollbackInto's merge against the
// concatenate-and-sort reference on random interleavings of 1 to 22 logs,
// including empty logs in the set.
func TestKWayMergeMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		nLogs := 1 + rng.Intn(22)
		logs := make([]*UndoLog, nLogs)
		for i := range logs {
			logs[i] = &UndoLog{}
		}
		var seq uint64
		var ref []UndoEntry
		for n := rng.Intn(300); n > 0; n-- {
			seq++
			e := UndoEntry{Addr: uint64(rng.Intn(64)) * WordSize, Old: rng.Uint64(), Seq: seq}
			logs[rng.Intn(nLogs)].Append(e)
			ref = append(ref, e)
		}
		sort.Slice(ref, func(i, j int) bool { return ref[i].Seq > ref[j].Seq })
		got := mergeUndoDesc(nil, logs)
		if len(got) != len(ref) {
			t.Fatalf("trial %d: merged %d entries, want %d", trial, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("trial %d: entry %d = %+v, want %+v", trial, i, got[i], ref[i])
			}
		}
	}
}

// TestRollbackManyLogs exercises the merge path end-to-end: many interleaved
// writers rolled back together must restore the initial image exactly.
func TestRollbackManyLogs(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	m := New()
	const words = 32
	base := m.AllocWords(words)
	initial := make([]uint64, words)
	for i := range initial {
		initial[i] = rng.Uint64()
		m.StoreRaw(base+uint64(i*WordSize), initial[i])
	}
	logs := make([]*UndoLog, 9)
	for i := range logs {
		logs[i] = &UndoLog{}
	}
	for n := 0; n < 2000; n++ {
		addr := base + uint64(rng.Intn(words))*WordSize
		old, seq := m.Store(addr, rng.Uint64())
		logs[rng.Intn(len(logs))].Append(UndoEntry{addr, old, seq})
	}
	RollbackInto(m, logs, nil)
	for i, want := range initial {
		if got := m.Load(base + uint64(i*WordSize)); got != want {
			t.Fatalf("word %d = %d, want %d", i, got, want)
		}
	}
}
