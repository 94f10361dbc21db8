package swarmhints_test

import (
	"testing"

	"swarmhints/internal/bench"
	"swarmhints/swarm"
)

// runStats executes one benchmark configuration and returns its statistics.
func runStats(t *testing.T, name string, cores int, kind swarm.SchedKind) *swarm.Stats {
	t.Helper()
	inst, err := bench.Build(name, bench.Tiny, 7)
	if err != nil {
		t.Fatal(err)
	}
	cfg := swarm.ScaledConfig().WithCores(cores)
	cfg.Scheduler = kind
	cfg.MaxCycles = 2_000_000_000
	st, err := inst.Prog.Run(cfg)
	if err != nil {
		t.Fatalf("%s/%v/%dc: %v", name, kind, cores, err)
	}
	if err := inst.Validate(); err != nil {
		t.Fatalf("%s/%v/%dc: %v", name, kind, cores, err)
	}
	return st
}

// invariantConfigs spans contended (des, kmeans), spill-heavy (1-core), and
// steal/LB configurations so every counter path is exercised.
var invariantConfigs = []struct {
	name  string
	cores int
	kind  swarm.SchedKind
}{
	{"bfs", 1, swarm.Random},
	{"sssp", 16, swarm.Hints},
	{"des", 16, swarm.Random},
	{"des", 64, swarm.LBHints},
	{"kmeans", 16, swarm.Hints},
	{"silo", 16, swarm.Stealing},
	{"mis", 16, swarm.Hints},
}

// TestCycleConservation is the core accounting invariant: commit, abort,
// stall, and empty cycles partition every core's time exactly, so their sum
// equals Cores×Cycles on every run. Spill cycles are coalescer work charged
// on top, so Breakdown.Total() exceeds the core total by exactly that much.
func TestCycleConservation(t *testing.T) {
	for _, c := range invariantConfigs {
		st := runStats(t, c.name, c.cores, c.kind)
		want := uint64(st.Cores) * st.Cycles
		if got := st.Breakdown.CoreTotal(); got != want {
			t.Errorf("%s/%v/%dc: CoreTotal %d != Cores×Cycles %d (diff %d)",
				c.name, c.kind, c.cores, got, want, int64(got)-int64(want))
		}
		if got := st.Breakdown.Total(); got != st.Breakdown.CoreTotal()+st.Breakdown.Spill {
			t.Errorf("%s/%v/%dc: Total %d != CoreTotal + Spill", c.name, c.kind, c.cores, got)
		}
	}
}

// TestPerTileSumsMatchAggregates checks the snapshot property of the
// metrics pipeline: every chip-wide Stats field equals the sum of its
// per-tile counters, for every counter the recorder carries.
func TestPerTileSumsMatchAggregates(t *testing.T) {
	for _, c := range invariantConfigs {
		st := runStats(t, c.name, c.cores, c.kind)
		var sum swarm.TileCounters
		for i := range st.Tiles {
			sum.Add(&st.Tiles[i])
		}
		b := st.Breakdown
		if sum.CommitCycles != b.Commit || sum.AbortCycles != b.Abort ||
			sum.SpillCycles != b.Spill || sum.StallCycles != b.Stall ||
			sum.EmptyCycles != b.Empty {
			t.Errorf("%s/%v/%dc: per-tile cycle sums diverge from Breakdown", c.name, c.kind, c.cores)
		}
		if sum.CommittedTasks != st.CommittedTasks || sum.AbortedAttempts != st.AbortedAttempts ||
			sum.SquashedTasks != st.SquashedTasks || sum.SpilledTasks != st.SpilledTasks ||
			sum.StolenTasks != st.StolenTasks || sum.EnqueuedTasks != st.EnqueuedTasks {
			t.Errorf("%s/%v/%dc: per-tile task counts diverge from aggregates", c.name, c.kind, c.cores)
		}
		if sum.Traffic != st.Traffic {
			t.Errorf("%s/%v/%dc: per-tile traffic %v != aggregate %v", c.name, c.kind, c.cores, sum.Traffic, st.Traffic)
		}
		if sum.L1Hits != st.Cache.L1Hits || sum.L2Hits != st.Cache.L2Hits ||
			sum.L3Hits != st.Cache.L3Hits || sum.MemAccesses != st.Cache.MemAccesses ||
			sum.RemoteForwards != st.Cache.RemoteForwards ||
			sum.Invalidations != st.Cache.Invalidations || sum.Writebacks != st.Cache.Writebacks {
			t.Errorf("%s/%v/%dc: per-tile cache counters diverge from aggregates", c.name, c.kind, c.cores)
		}
		if sum.Comparisons != st.Comparisons {
			t.Errorf("%s/%v/%dc: per-tile comparisons %d != aggregate %d",
				c.name, c.kind, c.cores, sum.Comparisons, st.Comparisons)
		}
		if len(st.Tiles) == 0 || st.Cores%len(st.Tiles) != 0 {
			t.Errorf("%s/%v/%dc: %d tiles for %d cores", c.name, c.kind, c.cores, len(st.Tiles), st.Cores)
		}
	}
}

// TestDerivedMetricEdgeCases pins the zero-value behavior of the derived
// metrics: no division by zero, well-defined empty results.
func TestDerivedMetricEdgeCases(t *testing.T) {
	var empty swarm.Stats
	if got := empty.WastedFraction(); got != 0 {
		t.Errorf("WastedFraction of empty stats = %f, want 0", got)
	}
	if got := empty.TotalTraffic(); got != 0 {
		t.Errorf("TotalTraffic of empty stats = %d, want 0", got)
	}
	if got := empty.LoadImbalance(); got != 0 {
		t.Errorf("LoadImbalance with no tiles = %f, want 0", got)
	}
	if sn := empty.Snapshot(); sn.TrafficFracMem != 0 || sn.TrafficFracAbort != 0 ||
		sn.TrafficFracTask != 0 || sn.TrafficFracGVT != 0 {
		t.Errorf("traffic fractions with no traffic = %+v, want 0", sn)
	}

	// All-idle tiles: committed cycles are zero everywhere.
	idle := swarm.Stats{Tiles: make([]swarm.TileCounters, 4)}
	if got := idle.LoadImbalance(); got != 0 {
		t.Errorf("LoadImbalance with zero committed cycles = %f, want 0", got)
	}

	// Single tile is perfectly balanced by definition.
	one := runStats(t, "sssp", 1, swarm.Random)
	if got := one.LoadImbalance(); got != 1 {
		t.Errorf("1-tile LoadImbalance = %f, want exactly 1", got)
	}

	// Fractions over all classes sum to 1 when there is traffic.
	st := runStats(t, "des", 16, swarm.Random)
	sn := st.Snapshot()
	if fsum := sn.TrafficFracMem + sn.TrafficFracAbort + sn.TrafficFracTask + sn.TrafficFracGVT; fsum < 0.999 || fsum > 1.001 {
		t.Errorf("traffic fractions sum to %f", fsum)
	}
	// LoadImbalance is bounded by [1, tiles].
	if li := st.LoadImbalance(); li < 1 || li > float64(len(st.Tiles)) {
		t.Errorf("LoadImbalance %f outside [1, %d]", li, len(st.Tiles))
	}
}

// TestSnapshotMatchesStats checks the machine-readable snapshot agrees with
// the Stats it was taken from.
func TestSnapshotMatchesStats(t *testing.T) {
	st := runStats(t, "des", 16, swarm.Hints)
	sn := st.Snapshot()
	if sn.Cycles != st.Cycles || sn.Cores != st.Cores {
		t.Fatal("snapshot header diverges")
	}
	if sn.CommitCycles != st.Breakdown.Commit || sn.AbortCycles != st.Breakdown.Abort {
		t.Fatal("snapshot breakdown diverges")
	}
	if sn.TrafficTotal != st.TotalTraffic() {
		t.Fatal("snapshot traffic total diverges")
	}
	if sn.WastedFraction != st.WastedFraction() || sn.LoadImbalance != st.LoadImbalance() {
		t.Fatal("snapshot derived metrics diverge")
	}
	if len(sn.PerTile) != len(st.Tiles) {
		t.Fatal("snapshot per-tile count diverges")
	}
	// The snapshot owns its per-tile copy.
	sn.PerTile[0].CommitCycles++
	if sn.PerTile[0].CommitCycles == st.Tiles[0].CommitCycles {
		t.Fatal("snapshot aliases Stats.Tiles")
	}
}
