package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// seedSnap builds a synthetic per-seed snapshot with every counter family
// populated on every tile, distinct per seed and per tile, so a dropped
// term in Merge shows up as a wrong sum rather than a lucky zero.
func seedSnap(i uint64) *Snapshot {
	tiles := make([]TileCounters, 2)
	for j := range tiles {
		k := i + 1000*uint64(j)
		tiles[j] = TileCounters{
			CommitCycles: 400 + k, AbortCycles: 40 + k, SpillCycles: 4 + k,
			StallCycles: 20 + k, EmptyCycles: 10 + k,
			CommittedTasks: 50 + k, AbortedAttempts: 5 + k, SquashedTasks: 3 + k,
			SpilledTasks: 2 + k, StolenTasks: 1 + k, EnqueuedTasks: 60 + k,
			Traffic: [NumTrafficClasses]uint64{25 + k, 8 + k, 12 + k, 5 + k},
			L1Hits:  250 + k, L2Hits: 25 + k, L3Hits: 3 + k, MemAccesses: 1 + k,
			RemoteForwards: 4 + k, Invalidations: 3 + k, Writebacks: 2 + k,
			Comparisons: 150 + k,
		}
	}
	cl := &AccessClassification{
		MultiHintRO: 0.1 * float64(i+1), SingleHintRO: 0.2,
		MultiHintRW: 0.05, SingleHintRW: 0.15, Arguments: 0.3,
		TotalAccesses: 1000 * (i + 1),
	}
	return NewSnapshot(Chip{Cycles: 1000 + i, Cores: 4, GVTRounds: 30 + i, Reconfigs: 1 + i}, tiles, cl, nil)
}

func TestMergeSumsCountersAndRecomputesDerived(t *testing.T) {
	a, b := seedSnap(0), seedSnap(7)
	m, err := MergeSnapshots([]*Snapshot{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if m.Cycles != a.Cycles+b.Cycles {
		t.Errorf("Cycles = %d, want sum %d", m.Cycles, a.Cycles+b.Cycles)
	}
	if m.CommittedTasks != a.CommittedTasks+b.CommittedTasks {
		t.Errorf("CommittedTasks not summed")
	}
	if m.TrafficTotal != a.TrafficTotal+b.TrafficTotal {
		t.Errorf("TrafficTotal not summed")
	}
	if m.Reconfigs != a.Reconfigs+b.Reconfigs || m.GVTRounds != a.GVTRounds+b.GVTRounds {
		t.Errorf("event counters not summed")
	}
	for i := range m.PerTile {
		if m.PerTile[i].CommitCycles != a.PerTile[i].CommitCycles+b.PerTile[i].CommitCycles {
			t.Errorf("tile %d CommitCycles not summed", i)
		}
	}

	// Derived metrics are recomputed from merged counters, never averaged.
	if want := float64(m.AbortCycles) / float64(m.AbortCycles+m.CommitCycles); m.WastedFraction != want {
		t.Errorf("WastedFraction = %v, want recomputed %v", m.WastedFraction, want)
	}
	var max, sum uint64
	for i := range m.PerTile {
		c := m.PerTile[i].CommitCycles
		sum += c
		if c > max {
			max = c
		}
	}
	if want := float64(max) / (float64(sum) / float64(len(m.PerTile))); m.LoadImbalance != want {
		t.Errorf("LoadImbalance = %v, want recomputed %v", m.LoadImbalance, want)
	}
	if want := float64(m.TrafficMem) / float64(m.TrafficTotal); m.TrafficFracMem != want {
		t.Errorf("TrafficFracMem = %v, want recomputed %v", m.TrafficFracMem, want)
	}

	// Classification is the access-weighted mix.
	wa, wb := float64(a.Classification.TotalAccesses), float64(b.Classification.TotalAccesses)
	if want := (a.Classification.MultiHintRO*wa + b.Classification.MultiHintRO*wb) / (wa + wb); m.Classification.MultiHintRO != want {
		t.Errorf("Classification.MultiHintRO = %v, want weighted %v", m.Classification.MultiHintRO, want)
	}
	if m.Classification.TotalAccesses != a.Classification.TotalAccesses+b.Classification.TotalAccesses {
		t.Errorf("Classification.TotalAccesses not summed")
	}

	// One side without a profile drops the merged profile entirely.
	c := seedSnap(3)
	c.Classification = nil
	m2, err := MergeSnapshots([]*Snapshot{a, c})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Classification != nil {
		t.Error("merged Classification present although one input lacked it")
	}
}

func TestMergeRejectsShapeMismatch(t *testing.T) {
	a := seedSnap(0)
	b := seedSnap(1)
	b.Cores = 8
	if _, err := MergeSnapshots([]*Snapshot{a, b}); err == nil || !strings.Contains(err.Error(), "cores") {
		t.Errorf("cores mismatch not rejected: %v", err)
	}
	c := seedSnap(1)
	c.NumTiles = 4
	if _, err := MergeSnapshots([]*Snapshot{a, c}); err == nil || !strings.Contains(err.Error(), "tile") {
		t.Errorf("tile mismatch not rejected: %v", err)
	}
	if _, err := MergeSnapshots(nil); err == nil {
		t.Error("zero-snapshot merge not rejected")
	}
	if _, err := MergeSnapshots([]*Snapshot{a, nil}); err == nil {
		t.Error("nil snapshot not rejected")
	}
}

func TestMergeSnapshotsDoesNotMutateInputs(t *testing.T) {
	snaps := []*Snapshot{seedSnap(0), seedSnap(1), seedSnap(2)}
	before := make([][]byte, len(snaps))
	for i, s := range snaps {
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = b
	}
	if _, err := MergeSnapshots(snaps); err != nil {
		t.Fatal(err)
	}
	for i, s := range snaps {
		after, _ := json.Marshal(s)
		if !bytes.Equal(before[i], after) {
			t.Errorf("input snapshot %d mutated by MergeSnapshots", i)
		}
	}
}

func TestMergeSnapshotsByteDeterministic(t *testing.T) {
	mk := func() []byte {
		m, err := MergeSnapshots([]*Snapshot{seedSnap(4), seedSnap(9), seedSnap(2), seedSnap(11)})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(mk(), mk()) {
		t.Error("repeated merges of the same inputs encode differently")
	}
}

func TestSummarizeSeeds(t *testing.T) {
	snaps := []*Snapshot{seedSnap(0), seedSnap(6)} // Cycles 1000, 1006
	sm := SummarizeSeeds(snaps)
	if sm.Seeds != 2 {
		t.Fatalf("Seeds = %d, want 2", sm.Seeds)
	}
	if sm.Cycles.Mean != 1003 || sm.Cycles.Min != 1000 || sm.Cycles.Max != 1006 {
		t.Errorf("Cycles stat = %+v, want mean 1003 min 1000 max 1006", sm.Cycles)
	}
	if sm.Cycles.Stddev != 3 { // population stddev of {1000, 1006}
		t.Errorf("Cycles.Stddev = %v, want 3", sm.Cycles.Stddev)
	}
	// A single seed has zero dispersion and mean == the value.
	one := SummarizeSeeds(snaps[:1])
	if one.Cycles.Stddev != 0 || one.Cycles.Mean != 1000 || one.Cycles.Min != one.Cycles.Max {
		t.Errorf("single-seed stat = %+v, want degenerate point at 1000", one.Cycles)
	}
	// Float metrics summarize the per-seed derived values.
	want := (snaps[0].WastedFraction + snaps[1].WastedFraction) / 2
	if math.Abs(sm.WastedFraction.Mean-want) > 1e-15 {
		t.Errorf("WastedFraction.Mean = %v, want %v", sm.WastedFraction.Mean, want)
	}
}

// TestMergedSnapshotCarriesSummary: the aggregate from MergeSnapshots is
// stamped with the dispersion block, while Merge alone (a running fold)
// never carries a stale one.
func TestMergedSnapshotCarriesSummary(t *testing.T) {
	m, err := MergeSnapshots([]*Snapshot{seedSnap(0), seedSnap(1)})
	if err != nil {
		t.Fatal(err)
	}
	if m.SeedSummary == nil || m.SeedSummary.Seeds != 2 {
		t.Fatalf("merged SeedSummary = %+v, want Seeds=2", m.SeedSummary)
	}
	a := seedSnap(0)
	a.SeedSummary = &SeedSummary{Seeds: 99}
	if err := a.Merge(seedSnap(1)); err != nil {
		t.Fatal(err)
	}
	if a.SeedSummary != nil {
		t.Error("Merge left a stale SeedSummary on the accumulator")
	}
}
