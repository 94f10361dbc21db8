package gate

import (
	"math"
	"strings"
	"testing"
	"time"
)

// TestNewBalancerNames: New builds a gateway under the empty balancer name
// and "adaptive", and rejects every other name with an error naming the
// one policy there is.
func TestNewBalancerNames(t *testing.T) {
	urls := []string{"http://a", "http://b", "http://c"}
	for _, name := range []string{"", BalancerAdaptive} {
		g, err := New(Options{Replicas: urls, Balancer: name, ProbeInterval: -1})
		if err != nil {
			t.Errorf("New with balancer %q: %v", name, err)
			continue
		}
		g.Close()
	}
	for _, name := range []string{"p2c", "roundrobin", "magic"} {
		g, err := New(Options{Replicas: urls, Balancer: name, ProbeInterval: -1})
		if err == nil {
			g.Close()
			t.Errorf("New accepted balancer %q", name)
			continue
		}
		if !strings.Contains(err.Error(), BalancerAdaptive) {
			t.Errorf("balancer %q: error %q does not name %q", name, err, BalancerAdaptive)
		}
	}
}

// TestAdaptiveDecaysOnFailureAndRecovers is the pheromone contract: errors
// collapse a replica's score multiplicatively (floored, never to zero), a
// degraded replica loses almost all traffic, and subsequent successes let
// it re-earn its share.
func TestAdaptiveDecaysOnFailureAndRecovers(t *testing.T) {
	a := newAdaptive(2)
	// Replica 1 fails repeatedly: score collapses to the floor.
	for i := 0; i < 10; i++ {
		a.failure(1)
	}
	s := a.Scores()
	if s[1] != scoreMin {
		t.Fatalf("failed replica score = %v, want floor %v", s[1], scoreMin)
	}
	if s[0] != scoreInit {
		t.Fatalf("healthy replica score moved: %v", s[0])
	}
	// Routing now heavily favors replica 0...
	counts := make(map[int]int)
	for i := 0; i < 1000; i++ {
		counts[a.Pick(uint64(i), []int{0, 1})]++
	}
	if counts[1] > 150 {
		t.Fatalf("degraded replica still drew %d/1000 picks", counts[1])
	}
	if counts[1] == 0 {
		t.Fatal("floor failed: degraded replica fully starved, cannot prove recovery")
	}
	// ...but equal-speed successes on replica 1 restore its score.
	for i := 0; i < 5; i++ {
		a.success(0, time.Millisecond)
	}
	for i := 0; i < 50; i++ {
		a.success(1, time.Millisecond)
	}
	if s := a.Scores(); s[1] < 0.9 {
		t.Fatalf("recovered replica score = %v, want ~1", s[1])
	}
}

// TestAdaptiveFavorsFasterReplica: with one replica consistently 4x
// faster, reinforcement should tilt traffic toward it.
func TestAdaptiveFavorsFasterReplica(t *testing.T) {
	a := newAdaptive(2)
	for i := 0; i < 50; i++ {
		a.success(0, time.Millisecond)
		a.success(1, 4*time.Millisecond)
	}
	s := a.Scores()
	if s[0] <= s[1] {
		t.Fatalf("scores fast=%v slow=%v, want fast > slow", s[0], s[1])
	}
	counts := make(map[int]int)
	for i := 0; i < 1000; i++ {
		counts[a.Pick(uint64(i), []int{0, 1})]++
	}
	if counts[0] <= counts[1] {
		t.Fatalf("picks fast=%d slow=%d, want majority on the fast replica", counts[0], counts[1])
	}
}

func TestAdaptiveScoreBounds(t *testing.T) {
	a := newAdaptive(1)
	// A replica absurdly faster than the reference must cap, not diverge.
	a.success(0, time.Second) // sets the reference high
	for i := 0; i < 200; i++ {
		a.success(0, time.Nanosecond)
	}
	if s := a.Scores()[0]; s > scoreMax {
		t.Fatalf("score %v exceeds cap %v", s, scoreMax)
	}
}

// TestAdaptiveCoversAllReplicas: the balancer eventually uses every healthy
// replica — nobody is silently starved on a uniform fleet.
func TestAdaptiveCoversAllReplicas(t *testing.T) {
	a := newAdaptive(3)
	counts := make(map[int]int)
	for k := 0; k < 300; k++ {
		p := a.Pick(uint64(k), []int{0, 1, 2})
		counts[p]++
		a.success(p, time.Millisecond)
	}
	for i := 0; i < 3; i++ {
		if counts[i] == 0 {
			t.Errorf("replica %d never picked: %v", i, counts)
		}
	}
}

// adaptivePicks routes keys 0..n-1 over candidates and returns each key's
// replica.
func adaptivePicks(a *adaptive, candidates []int, n int) []int {
	out := make([]int, n)
	for k := range out {
		out[k] = a.Pick(uint64(k), candidates)
	}
	return out
}

// TestAdaptiveKeyIsSticky: with the scores steady, a key picks the same
// replica on every call — the affinity that lets each replica's LRU hold
// its own share of the working set.
func TestAdaptiveKeyIsSticky(t *testing.T) {
	a := newAdaptive(3)
	first := adaptivePicks(a, []int{0, 1, 2}, 1000)
	for call := 0; call < 5; call++ {
		for k, p := range adaptivePicks(a, []int{0, 1, 2}, 1000) {
			if p != first[k] {
				t.Fatalf("call %d: key %d picked %d, first picked %d", call, k, p, first[k])
			}
		}
	}
}

// TestAdaptiveKeySharesFollowScores: across many keys, replica i draws
// score_i/Σscore of them, the split a score-proportional random pick
// gives.
func TestAdaptiveKeySharesFollowScores(t *testing.T) {
	const keys = 10000
	for _, scores := range [][]float64{{1, 1}, {4, 1}, {1, 1, 1}, {4, 1, 1}} {
		a := newAdaptive(len(scores))
		copy(a.score, scores)
		total := 0.0
		for _, s := range scores {
			total += s
		}
		counts := make([]int, len(scores))
		for _, p := range adaptivePicks(a, []int{0, 1, 2}[:len(scores)], keys) {
			counts[p]++
		}
		for i, s := range scores {
			got, want := float64(counts[i])/keys, s/total
			if math.Abs(got-want) > 0.03 {
				t.Errorf("scores %v: replica %d drew %.3f of keys, want %.3f±0.03", scores, i, got, want)
			}
		}
	}
}

// TestAdaptiveDroppedCandidateMovesOnlyItsKeys: removing a candidate
// (unhealthy, breaker open, or excluded after a failure) re-routes exactly
// the keys that had picked it; every other key stays home.
func TestAdaptiveDroppedCandidateMovesOnlyItsKeys(t *testing.T) {
	const keys = 10000
	a := newAdaptive(3)
	copy(a.score, []float64{1, 2, 0.5})
	before := adaptivePicks(a, []int{0, 1, 2}, keys)
	after := adaptivePicks(a, []int{0, 2}, keys)
	moved := 0
	for k := range before {
		switch {
		case before[k] == 1:
			moved++
		case after[k] != before[k]:
			t.Fatalf("key %d moved %d -> %d though its replica stayed a candidate", k, before[k], after[k])
		}
	}
	if moved == 0 {
		t.Fatal("no key had picked the dropped replica")
	}
}

// TestAdaptiveFailedReplicaLosesItsKeys: a replica decayed to the score
// floor by failures gives up nearly all of its keys — to the others, never
// the reverse — while the floor leaves it a trickle to prove recovery.
func TestAdaptiveFailedReplicaLosesItsKeys(t *testing.T) {
	const keys = 10000
	a := newAdaptive(2)
	before := adaptivePicks(a, []int{0, 1}, keys)
	for i := 0; i < 10; i++ {
		a.failure(1)
	}
	if s := a.Scores()[1]; s != scoreMin {
		t.Fatalf("failed replica score = %v, want floor %v", s, scoreMin)
	}
	after := adaptivePicks(a, []int{0, 1}, keys)
	had, kept := 0, 0
	for k := range before {
		if before[k] == 0 && after[k] != 0 {
			t.Fatalf("key %d moved onto the failing replica", k)
		}
		if before[k] == 1 {
			had++
			if after[k] == 1 {
				kept++
			}
		}
	}
	// At the floor the replica's expected share is scoreMin/(1+scoreMin),
	// under 5% of keys, so it keeps under a tenth of the half it held.
	if had == 0 || float64(kept) > 0.15*float64(had) {
		t.Fatalf("failed replica kept %d of its %d keys", kept, had)
	}
	if kept == 0 {
		t.Fatal("floor failed: degraded replica kept no key, cannot prove recovery")
	}
}

// TestPickDoesNotAllocate: while every replica is healthy and admitted,
// pick routes from the gateway's shared candidate sets — a first try and a
// retry that excludes the failed replica build no slice.
func TestPickDoesNotAllocate(t *testing.T) {
	g, err := New(Options{Replicas: []string{"http://a", "http://b", "http://c"}, ProbeInterval: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if n := testing.AllocsPerRun(100, func() {
		g.pick(7, -1)
		g.pick(7, 1)
	}); n != 0 {
		t.Fatalf("pick allocated %v times per run, want 0", n)
	}
}
