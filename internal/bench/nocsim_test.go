package bench

import (
	"strings"
	"testing"

	"swarmhints/internal/workload"
	"swarmhints/swarm"
)

// runNocsim builds and runs the nocsim benchmark at Tiny scale.
func runNocsim(t *testing.T, kind swarm.SchedKind, cores int) *Instance {
	t.Helper()
	inst := BuildNocsim(Tiny, 7)
	cfg := swarm.ScaledConfig().WithCores(cores)
	cfg.Scheduler = kind
	if _, err := inst.Prog.Run(cfg); err != nil {
		t.Fatalf("nocsim under %v at %d cores: %v", kind, cores, err)
	}
	return inst
}

// TestNocsimValidatePasses exercises the validation path end to end under
// several schedulers: the speculative execution's router state must match
// the reference path-walk exactly.
func TestNocsimValidatePasses(t *testing.T) {
	for _, kind := range []swarm.SchedKind{swarm.Random, swarm.Hints, swarm.LBHints} {
		inst := runNocsim(t, kind, 4)
		if err := inst.Validate(); err != nil {
			t.Errorf("validation failed under %v: %v", kind, err)
		}
	}
}

// TestNocsimValidateDetectsCorruption checks Validate is a real oracle: a
// single flipped router-state word must be reported, with its index.
func TestNocsimValidateDetectsCorruption(t *testing.T) {
	inst := runNocsim(t, swarm.Hints, 4)
	if err := inst.Validate(); err != nil {
		t.Fatalf("clean run failed validation: %v", err)
	}
	// The simulated allocator is deterministic, so a fresh program's first
	// allocation lands at the same base address nocsim's state array got.
	base := swarm.NewProgram().Mem.AllocWords(1)
	inst.Prog.Mem.StoreRaw(base, inst.Prog.Mem.Load(base)+1)
	err := inst.Validate()
	if err == nil {
		t.Fatal("validation accepted corrupted router state")
	}
	if !strings.Contains(err.Error(), "state word 0") {
		t.Errorf("corruption error does not name the word: %v", err)
	}
}

// TestNocsimMetadata pins the Table I row: ordered speculation with router
// IDs as hints.
func TestNocsimMetadata(t *testing.T) {
	inst := BuildNocsim(Tiny, 7)
	if !inst.Ordered {
		t.Error("nocsim must use ordered speculation")
	}
	if got := HintPattern("nocsim"); got != "Router ID" {
		t.Errorf("hint pattern %q, want %q", got, "Router ID")
	}
	if inst.Name != "nocsim" {
		t.Errorf("instance name %q", inst.Name)
	}
}

// TestRefNocConservation checks the reference model against closed-form
// invariants of X-Y routing: every packet is delivered exactly once, visits
// manhattan(src,dst)+1 routers (one switch grant each), and is forwarded
// from all but the last.
func TestRefNocConservation(t *testing.T) {
	for _, scale := range []Scale{Tiny, Small} {
		k, rate, horizon := nocScaleParams(scale)
		packets := workload.Tornado(k, rate, horizon, 7)
		if len(packets) == 0 {
			t.Fatalf("%v: empty tornado workload", scale)
		}
		want := refNoc(k, packets)

		var wantHops, wantVisits uint64
		for _, pk := range packets {
			sx, sy := int(pk.Src)%k, int(pk.Src)/k
			dx, dy := int(pk.Dst)%k, int(pk.Dst)/k
			manhattan := abs(sx-dx) + abs(sy-dy)
			wantHops += uint64(manhattan)
			wantVisits += uint64(manhattan) + 1
		}

		var grants, forwarded, delivered uint64
		for i := 0; i < k*k*nocVCs; i++ {
			grants += want[i*nocFields+1]
			forwarded += want[i*nocFields+2]
			delivered += want[i*nocFields+3]
		}
		if delivered != uint64(len(packets)) {
			t.Errorf("%v: %d packets delivered, want %d", scale, delivered, len(packets))
		}
		if grants != wantVisits {
			t.Errorf("%v: %d switch grants, want %d (one per router visit)", scale, grants, wantVisits)
		}
		if forwarded != wantHops {
			t.Errorf("%v: %d forwards, want %d (one per hop)", scale, forwarded, wantHops)
		}
	}
}

// TestNocsimSimMatchesReferenceTotals cross-checks the executed simulation
// (not just the validator) against the same conservation invariant, reading
// the delivered counters straight out of simulated memory.
func TestNocsimSimMatchesReferenceTotals(t *testing.T) {
	inst := runNocsim(t, swarm.Hints, 16)
	k, rate, horizon := nocScaleParams(Tiny)
	packets := workload.Tornado(k, rate, horizon, 7)
	base := swarm.NewProgram().Mem.AllocWords(1)
	var delivered uint64
	for i := 0; i < k*k*nocVCs; i++ {
		delivered += inst.Prog.Mem.Load(base + uint64(i*nocFields+3)*8)
	}
	if delivered != uint64(len(packets)) {
		t.Errorf("simulation delivered %d packets, want %d", delivered, len(packets))
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
