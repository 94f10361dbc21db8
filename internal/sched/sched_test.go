package sched

import (
	"math/rand"
	"testing"

	"swarmhints/internal/hashutil"
	"swarmhints/internal/metrics"
	"swarmhints/internal/task"
)

// tasks hands out the tests' descriptors.
var tasks task.Pool

func hintTask(id, hint uint64) *task.Task {
	return tasks.Get(id, 0, id, task.HintInt, hint, nil, nil)
}

func TestRandomSpreads(t *testing.T) {
	s := New(Random, 16, 0, 1, nil)
	counts := make([]int, 16)
	for i := uint64(0); i < 1600; i++ {
		counts[s.DestTile(hintTask(i, 7), 0)]++
	}
	for tile, c := range counts {
		if c == 0 {
			t.Fatalf("tile %d never chosen by Random", tile)
		}
	}
}

func TestHintsDeterministicMapping(t *testing.T) {
	s := New(Hints, 16, 0, 1, nil)
	a := s.DestTile(hintTask(1, 42), 3)
	b := s.DestTile(hintTask(2, 42), 9)
	if a != b {
		t.Fatal("same hint mapped to different tiles")
	}
	if a != hashutil.HintToTile(42, 16) {
		t.Fatal("Hints must use the canonical hint-to-tile hash")
	}
}

func TestHintsNoHintIsRandom(t *testing.T) {
	s := New(Hints, 16, 0, 1, nil)
	seen := map[int]bool{}
	for i := uint64(0); i < 200; i++ {
		tk := tasks.Get(i, 0, i, task.HintNone, 0, nil, nil)
		seen[s.DestTile(tk, 0)] = true
	}
	if len(seen) < 8 {
		t.Fatalf("NOHINT tasks hit only %d tiles; expected random spread", len(seen))
	}
}

func TestSameHintStaysLocal(t *testing.T) {
	s := New(Hints, 16, 0, 1, nil)
	p := tasks.Get(1, 0, 1, task.HintNone, 0, nil, nil)
	c := tasks.Get(2, 0, 2, task.HintSame, 0, p, nil)
	if got := s.DestTile(c, 11); got != 11 {
		t.Fatalf("unresolved SAMEHINT went to tile %d, want local 11", got)
	}
}

func TestStealingEnqueuesLocally(t *testing.T) {
	s := New(Stealing, 16, 0, 1, nil)
	if got := s.DestTile(hintTask(1, 99), 5); got != 5 {
		t.Fatalf("Stealing enqueued remotely: %d", got)
	}
	if !s.WantSteal() {
		t.Fatal("Stealing must request the steal protocol")
	}
}

func TestSerializeSameHintFlag(t *testing.T) {
	for _, k := range []Kind{Hints, LBHints, LBIdleProxy} {
		if !New(k, 4, 100, 1, nil).SerializeSameHint() {
			t.Fatalf("%v must serialize same-hint tasks", k)
		}
	}
	for _, k := range []Kind{Random, Stealing, HintsNoSerial} {
		if New(k, 4, 100, 1, nil).SerializeSameHint() {
			t.Fatalf("%v must not serialize by hint", k)
		}
	}
}

func TestLBInitialMapUniform(t *testing.T) {
	s := New(LBHints, 4, 1000, 1, nil)
	counts := make([]int, 4)
	for b := 0; b < s.Buckets(); b++ {
		counts[s.TileOfBucket(b)]++
	}
	for tile, c := range counts {
		if c != BucketsPerTile {
			t.Fatalf("tile %d owns %d buckets initially, want %d", tile, c, BucketsPerTile)
		}
	}
}

func TestLBTaskGetsBucket(t *testing.T) {
	s := New(LBHints, 4, 1000, 1, nil)
	tk := hintTask(1, 777)
	dest := s.DestTile(tk, 0)
	if tk.Bucket < 0 || tk.Bucket >= s.Buckets() {
		t.Fatalf("bucket %d out of range", tk.Bucket)
	}
	if dest != s.TileOfBucket(tk.Bucket) {
		t.Fatal("destination disagrees with tile map")
	}
}

func TestLBReconfigMovesLoadedBuckets(t *testing.T) {
	s := New(LBHints, 4, 1000, 1, nil)
	// Pile committed cycles onto buckets of tile 0.
	var hot []uint64
	for h := uint64(0); len(hot) < 8; h++ {
		b := hashutil.HintToBucket(h, s.Buckets())
		if s.TileOfBucket(b) == 0 {
			hot = append(hot, h)
			tk := hintTask(h+1, h)
			s.DestTile(tk, 0)
			s.OnCommit(tk, 10_000)
		}
	}
	if !s.ReconfigDue(1000) {
		t.Fatal("reconfig should be due")
	}
	s.Reconfigure(1000, nil)
	moved := 0
	for _, h := range hot {
		if s.TileOfBucket(hashutil.HintToBucket(h, s.Buckets())) != 0 {
			moved++
		}
	}
	if moved == 0 {
		t.Fatal("reconfiguration moved no hot buckets off the overloaded tile")
	}
	if s.Reconfigs() != 1 {
		t.Fatal("reconfig counter wrong")
	}
}

func TestLBReconfigPreservesPartition(t *testing.T) {
	s := New(LBHints, 8, 100, 1, nil)
	for i := uint64(0); i < 500; i++ {
		tk := hintTask(i, i%37)
		s.DestTile(tk, 0)
		s.OnCommit(tk, (i%37)*100)
	}
	s.Reconfigure(100, nil)
	for b := 0; b < s.Buckets(); b++ {
		tile := s.TileOfBucket(b)
		if tile < 0 || tile >= 8 {
			t.Fatalf("bucket %d mapped to invalid tile %d", b, tile)
		}
	}
}

func TestLBReconfigReducesImbalance(t *testing.T) {
	s := New(LBHints, 4, 100, 1, nil)
	// Known synthetic load: buckets on tile 0 carry all cycles.
	loads := func() []float64 {
		l := make([]float64, 4)
		for b := 0; b < s.Buckets(); b++ {
			l[s.TileOfBucket(b)] += float64(s.bucketCycles[b])
		}
		return l
	}
	for b := 0; b < s.Buckets(); b++ {
		if s.TileOfBucket(b) == 0 {
			s.bucketCycles[b] = 1000
		}
	}
	before := loads()
	imbBefore := before[0]
	s.Reconfigure(100, nil)
	// Counters are reset after reconfig; re-express the same per-bucket load
	// to measure the new mapping's balance.
	var after [4]float64
	for b := 0; b < s.Buckets(); b++ {
		if hashOwnedByTile0Initially(b, 4) {
			after[s.TileOfBucket(b)] += 1000
		}
	}
	if after[0] >= imbBefore {
		t.Fatalf("imbalance not reduced: tile0 load %v -> %v", imbBefore, after[0])
	}
}

func hashOwnedByTile0Initially(b, tiles int) bool { return b%tiles == 0 }

func TestLBIdleProxyUsesIdleCounts(t *testing.T) {
	s := New(LBIdleProxy, 2, 100, 1, nil)
	// No committed cycles at all; idle counts alone should still move
	// buckets from tile 0 (loaded) to tile 1 (empty).
	s.Reconfigure(100, []int{100, 0})
	movedTo1 := 0
	for b := 0; b < s.Buckets(); b++ {
		if b%2 == 0 && s.TileOfBucket(b) == 1 {
			movedTo1++
		}
	}
	if movedTo1 == 0 {
		t.Fatal("idle-proxy reconfig moved nothing despite imbalance")
	}
}

func TestReconfigScheduling(t *testing.T) {
	s := New(LBHints, 2, 500, 1, nil)
	if s.ReconfigDue(499) {
		t.Fatal("reconfig due too early")
	}
	if !s.ReconfigDue(500) {
		t.Fatal("reconfig not due at interval")
	}
	s.Reconfigure(500, nil)
	if s.ReconfigDue(999) {
		t.Fatal("reconfig due again before next interval")
	}
}

func TestNonLBKindsNeverReconfig(t *testing.T) {
	for _, k := range []Kind{Random, Stealing, Hints} {
		s := New(k, 4, 100, 1, nil)
		if s.ReconfigDue(1_000_000) {
			t.Fatalf("%v scheduled a reconfig", k)
		}
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{Random: "Random", Stealing: "Stealing", Hints: "Hints", LBHints: "LBHints", LBIdleProxy: "LBIdleTasks", HintsNoSerial: "HintsNoSer"}
	for k, w := range want {
		if k.String() != w {
			t.Fatalf("%d.String() = %q, want %q", int(k), k.String(), w)
		}
	}
}

// --- LBIdleProxy reconfiguration coverage (Sec. VI-A idle-task proxy) ---

// TestLBIdleProxyProportionalBucketSplit pins how an idle count is spread
// over a tile's buckets: proportionally to profiled committed cycles. With
// a 90/10 cycle split and fraction 0.8, only the light bucket fits inside
// the receiver's deficit, so exactly it migrates.
func TestLBIdleProxyProportionalBucketSplit(t *testing.T) {
	s := New(LBIdleProxy, 2, 100, 1, nil)
	var tile0 []int
	for b := 0; b < s.Buckets(); b++ {
		if s.TileOfBucket(b) == 0 {
			tile0 = append(tile0, b)
		}
	}
	heavy, light := tile0[0], tile0[1]
	s.bucketCycles[heavy] = 900
	s.bucketCycles[light] = 100
	// Tile 0 holds all 100 idle tasks: bucketLoad(heavy)=90, (light)=10;
	// the deficit each side may close is (100/2)*0.8 = 40.
	s.Reconfigure(100, []int{100, 0})
	if got := s.TileOfBucket(heavy); got != 0 {
		t.Errorf("heavy bucket (load 90 > transferable 40) moved to tile %d", got)
	}
	if got := s.TileOfBucket(light); got != 1 {
		t.Errorf("light bucket (load 10) stayed on tile %d, want migration to 1", got)
	}
	// Unprofiled tile-0 buckets carry zero load and must not move.
	for _, b := range tile0[2:] {
		if s.TileOfBucket(b) != 0 {
			t.Errorf("zero-load bucket %d migrated", b)
		}
	}
}

// TestLBIdleProxyShortIdleSlice checks a shorter-than-tiles idle slice is
// treated as zero idle for the missing tiles rather than panicking, and
// still rebalances away from the listed loaded tile.
func TestLBIdleProxyShortIdleSlice(t *testing.T) {
	s := New(LBIdleProxy, 4, 100, 1, nil)
	s.Reconfigure(100, []int{80}) // tiles 1..3 unlisted
	moved := 0
	counts := make([]int, 4)
	for b := 0; b < s.Buckets(); b++ {
		tile := s.TileOfBucket(b)
		if tile < 0 || tile >= 4 {
			t.Fatalf("bucket %d mapped to invalid tile %d", b, tile)
		}
		counts[tile]++
		if b%4 == 0 && tile != 0 {
			moved++
		}
	}
	if moved == 0 {
		t.Error("no bucket moved off the only loaded tile")
	}
	if total := counts[0] + counts[1] + counts[2] + counts[3]; total != s.Buckets() {
		t.Errorf("partition broken: %d buckets accounted, want %d", total, s.Buckets())
	}
}

// TestLBIdleProxyZeroLoadKeepsMap checks an all-idle-zero window changes
// nothing except the schedule: the reconfiguration still counts and the
// next one is pushed a full interval out.
func TestLBIdleProxyZeroLoadKeepsMap(t *testing.T) {
	s := New(LBIdleProxy, 4, 250, 1, nil)
	before := make([]int, s.Buckets())
	for b := range before {
		before[b] = s.TileOfBucket(b)
	}
	s.Reconfigure(250, []int{0, 0, 0, 0})
	for b := range before {
		if s.TileOfBucket(b) != before[b] {
			t.Fatalf("bucket %d moved under zero load", b)
		}
	}
	if s.Reconfigs() != 1 {
		t.Errorf("zero-load reconfig not counted: %d", s.Reconfigs())
	}
	if s.ReconfigDue(499) || !s.ReconfigDue(500) {
		t.Error("next reconfiguration not scheduled one interval out")
	}
}

// TestLBIdleProxyResetsProfileCounters checks each profiling window is
// independent: committed-cycle counters clear after a reconfiguration.
func TestLBIdleProxyResetsProfileCounters(t *testing.T) {
	s := New(LBIdleProxy, 2, 100, 1, nil)
	tk := hintTask(1, 5)
	s.DestTile(tk, 0)
	s.OnCommit(tk, 4242)
	s.Reconfigure(100, []int{10, 0})
	for b := 0; b < s.Buckets(); b++ {
		if s.bucketCycles[b] != 0 {
			t.Fatalf("bucket %d cycles not reset: %d", b, s.bucketCycles[b])
		}
	}
}

// TestLBReconfigPublishesToRecorder checks reconfiguration counts publish
// into the shared metrics recorder (chip-level, like the engine wires it).
func TestLBReconfigPublishesToRecorder(t *testing.T) {
	rec := metrics.New(2)
	s := New(LBIdleProxy, 2, 100, 1, rec)
	s.Reconfigure(100, []int{10, 0})
	s.Reconfigure(200, []int{0, 10})
	if rec.Reconfigs != 2 {
		t.Errorf("recorder saw %d reconfigs, want 2", rec.Reconfigs)
	}
	if s.Reconfigs() != 2 {
		t.Errorf("scheduler reports %d reconfigs, want 2", s.Reconfigs())
	}
}

// TestReconfigureScratchCarriesNoState: Reconfigure reuses its working
// buffers across calls, so each call must decide exactly what a fresh
// scheduler holding the same tile map and cycle profile decides.
func TestReconfigureScratchCarriesNoState(t *testing.T) {
	for _, kind := range []Kind{LBHints, LBIdleProxy} {
		const tiles = 8
		s := New(kind, tiles, 100, 1, nil)
		rng := rand.New(rand.NewSource(3))
		idle := make([]int, tiles)
		for round := 1; round <= 200; round++ {
			for b := range s.bucketCycles {
				if rng.Intn(3) > 0 {
					s.bucketCycles[b] = uint64(rng.Intn(1000) * rng.Intn(4))
				}
			}
			for i := range idle {
				idle[i] = rng.Intn(50) * rng.Intn(2)
			}
			fresh := New(kind, tiles, 100, 1, nil)
			copy(fresh.tileMap, s.tileMap)
			copy(fresh.bucketCycles, s.bucketCycles)
			now := uint64(round * 100)
			s.Reconfigure(now, idle)
			fresh.Reconfigure(now, idle)
			for b := range s.tileMap {
				if s.tileMap[b] != fresh.tileMap[b] {
					t.Fatalf("%v round %d: bucket %d on tile %d, fresh scheduler put it on %d",
						kind, round, b, s.tileMap[b], fresh.tileMap[b])
				}
			}
		}
	}
}
