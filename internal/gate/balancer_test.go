package gate

import (
	"math"
	"strings"
	"testing"
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

// TestAdaptiveCoversAllReplicas: pickHome eventually uses every candidate —
// nobody is silently starved on a uniform fleet.
func TestAdaptiveCoversAllReplicas(t *testing.T) {
	counts := make(map[int]int)
	for _, p := range homes([]int{0, 1, 2}, 300) {
		counts[p]++
	}
	for i := 0; i < 3; i++ {
		if counts[i] == 0 {
			t.Errorf("replica %d never picked: %v", i, counts)
		}
	}
}

// homes routes keys 0..n-1 over candidates and returns each key's replica.
func homes(candidates []int, n int) []int {
	out := make([]int, n)
	for k := range out {
		out[k] = pickHome(uint64(k), candidates)
	}
	return out
}

// TestAdaptiveKeyIsSticky: a key picks the same replica on every call — the
// affinity that lets each replica's LRU hold its own share of the working
// set.
func TestAdaptiveKeyIsSticky(t *testing.T) {
	first := homes([]int{0, 1, 2}, 1000)
	for call := 0; call < 5; call++ {
		for k, p := range homes([]int{0, 1, 2}, 1000) {
			if p != first[k] {
				t.Fatalf("call %d: key %d picked %d, first picked %d", call, k, p, first[k])
			}
		}
	}
}

// TestPickSplitsKeysEvenly: across many keys, each of n candidates draws
// 1/n of them.
func TestPickSplitsKeysEvenly(t *testing.T) {
	const keys = 10000
	for _, n := range []int{2, 3} {
		counts := make([]int, n)
		for _, p := range homes([]int{0, 1, 2}[:n], keys) {
			counts[p]++
		}
		for i, c := range counts {
			if got, want := float64(c)/keys, 1/float64(n); math.Abs(got-want) > 0.03 {
				t.Errorf("%d replicas: replica %d drew %.3f of keys, want %.3f±0.03", n, i, got, want)
			}
		}
	}
}

// TestAdaptiveDroppedCandidateMovesOnlyItsKeys: removing a candidate
// (unhealthy, breaker open, or excluded after a failure) re-routes exactly
// the keys that had picked it; every other key stays home.
func TestAdaptiveDroppedCandidateMovesOnlyItsKeys(t *testing.T) {
	const keys = 10000
	before := homes([]int{0, 1, 2}, keys)
	after := homes([]int{0, 2}, keys)
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
