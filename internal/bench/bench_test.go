package bench

import (
	"testing"

	"swarmhints/swarm"
)

func runCfg(cores int, k swarm.SchedKind) swarm.Config {
	cfg := swarm.ScaledConfig().WithCores(cores)
	cfg.Scheduler = k
	cfg.MaxCycles = 2_000_000_000
	return cfg
}

// TestAllBenchmarksSerialEquivalence is the core correctness suite: every
// benchmark, under every scheduler and several machine sizes, must commit a
// final memory state identical to its serial reference implementation.
func TestAllBenchmarksSerialEquivalence(t *testing.T) {
	scheds := []swarm.SchedKind{swarm.Random, swarm.Stealing, swarm.Hints, swarm.LBHints}
	for _, name := range AllNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			for _, k := range scheds {
				for _, cores := range []int{1, 16} {
					inst, err := Build(name, Tiny, 7)
					if err != nil {
						t.Fatal(err)
					}
					st, err := inst.Prog.Run(runCfg(cores, k))
					if err != nil {
						t.Fatalf("%v/%dc: %v", k, cores, err)
					}
					if err := inst.Validate(); err != nil {
						t.Fatalf("%v/%dc: %v", k, cores, err)
					}
					if st.CommittedTasks == 0 {
						t.Fatalf("%v/%dc: no tasks committed", k, cores)
					}
				}
			}
		})
	}
}

// TestBenchmarks64Cores runs each benchmark on a 64-core machine under
// Hints, the configuration most experiments use.
func TestBenchmarks64Cores(t *testing.T) {
	if testing.Short() {
		t.Skip("64-core sweep skipped in -short mode")
	}
	for _, name := range Names() {
		inst, err := Build(name, Tiny, 11)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := inst.Prog.Run(runCfg(64, swarm.Hints)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := inst.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestDifferentSeedsStillValid(t *testing.T) {
	for _, seed := range []int64{1, 42, 999} {
		for _, name := range []string{"sssp", "des", "genome", "kmeans"} {
			inst, err := Build(name, Tiny, seed)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := inst.Prog.Run(runCfg(16, swarm.Hints)); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if err := inst.Validate(); err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	if len(Names()) != 9 {
		t.Fatalf("Table I has 9 benchmarks, registry names %d", len(Names()))
	}
	for _, n := range Names() {
		if _, ok := Registry[n]; !ok {
			t.Fatalf("benchmark %q not registered", n)
		}
	}
	for _, n := range FGNames() {
		if _, ok := Registry[n+"-fg"]; !ok {
			t.Fatalf("fine-grain variant %q-fg not registered", n)
		}
	}
	if _, err := Build("nonexistent", Tiny, 1); err == nil {
		t.Fatal("unknown benchmark must error")
	}
}

func TestInstanceMetadata(t *testing.T) {
	ordered := map[string]bool{
		"bfs": true, "sssp": true, "astar": true, "color": true,
		"des": true, "nocsim": true, "silo": true,
		"genome": false, "kmeans": false,
	}
	for name, want := range ordered {
		inst, err := Build(name, Tiny, 1)
		if err != nil {
			t.Fatal(err)
		}
		if inst.Ordered != want {
			t.Fatalf("%s: Ordered = %v, want %v (Sec. II-A)", name, inst.Ordered, want)
		}
	}
	for name := range Registry {
		if HintPattern(name) == "" {
			t.Fatalf("%s: missing hint pattern", name)
		}
	}
	if len(hintPatterns) != len(Registry) {
		t.Fatalf("%d hint patterns for %d registered benchmarks", len(hintPatterns), len(Registry))
	}
}

// TestFGMakesRWSingleHint reproduces the Sec. V claim that fine-grain
// versions turn virtually all read-write accesses single-hint.
func TestFGMakesRWSingleHint(t *testing.T) {
	profile := func(name string) *swarm.Classification {
		inst, err := Build(name, Tiny, 5)
		if err != nil {
			t.Fatal(err)
		}
		cfg := runCfg(16, swarm.Hints)
		cfg.Profile = true
		st, err := inst.Prog.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := inst.Validate(); err != nil {
			t.Fatal(err)
		}
		return st.Classification
	}
	for _, name := range []string{"sssp", "bfs"} {
		cg := profile(name)
		fg := profile(name + "-fg")
		cgRW := cg.MultiHintRW / (cg.MultiHintRW + cg.SingleHintRW + 1e-12)
		fgRW := fg.MultiHintRW / (fg.MultiHintRW + fg.SingleHintRW + 1e-12)
		if fgRW >= cgRW {
			t.Fatalf("%s: FG multi-hint RW fraction %.2f not below CG %.2f", name, fgRW, cgRW)
		}
	}
}

// TestKmeansHintsCutTraffic reproduces the robust kmeans claim: Hints
// localizes the hot centroid data, slashing NoC traffic versus Random (the
// paper reports up to 32× at 256 cores; note Fig. 4 shows Random can still
// *outperform* Hints on time at 16–160 cores because of hint-induced
// imbalance, so traffic is the right invariant at this scale).
func TestKmeansHintsCutTraffic(t *testing.T) {
	traffic := map[swarm.SchedKind]uint64{}
	for _, k := range []swarm.SchedKind{swarm.Random, swarm.Hints} {
		inst, err := Build("kmeans", Tiny, 3)
		if err != nil {
			t.Fatal(err)
		}
		st, err := inst.Prog.Run(runCfg(16, k))
		if err != nil {
			t.Fatal(err)
		}
		traffic[k] = st.TotalTraffic()
	}
	if traffic[swarm.Hints]*2 > traffic[swarm.Random] {
		t.Fatalf("kmeans: Hints traffic %d not well below Random's %d",
			traffic[swarm.Hints], traffic[swarm.Random])
	}
}
