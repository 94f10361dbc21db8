package gate

import (
	"math"
	"sync"
	"time"

	"swarmhints/internal/hashutil"
)

// balancer decides which replica serves the next point and learns from
// the attempts that settle on one. The gateway routes through the adaptive
// balancer; the interface lets a test hold its scores still.
// Implementations are safe for concurrent use.
type balancer interface {
	// Pick chooses one replica index among candidates (never empty) for
	// the work whose routing hint is key: a hash of the point's canonical
	// configuration key, so every attempt at one point carries the same
	// key.
	Pick(key uint64, candidates []int) int
	// success reports an attempt on replica i that won its point, and its
	// latency.
	success(i int, latency time.Duration)
	// failure reports an attempt on replica i that failed or timed out.
	failure(i int)
	// Scores snapshots the per-replica desirability signal (higher is
	// better), for the swarmgate_replica_score gauge.
	Scores() []float64
}

// BalancerAdaptive names the gateway's only routing policy, the
// Options.Balancer value that selects it.
const BalancerAdaptive = "adaptive"

// Pheromone parameters of the adaptive balancer.
const (
	scoreInit      = 1.0  // every replica starts average
	scoreMin       = 0.05 // floor: a degraded replica keeps a trickle of traffic to prove recovery
	scoreMax       = 16.0 // cap: one fast replica must not starve the rest forever
	reinforceAlpha = 0.2  // EWMA weight of one success in the score
	failDecay      = 0.25 // multiplicative score decay per error/timeout
	refAlpha       = 0.1  // EWMA weight of one success in the fleet latency reference
)

// adaptive is SwarmRoute-style pheromone routing: each replica carries a
// score (its pheromone trail), successes reinforce toward the replica's
// speed relative to the fleet-wide latency reference, and errors/timeouts
// decay the score multiplicatively. The floor keeps a degraded replica
// visible enough to re-earn traffic once it recovers (and the health
// prober re-admits it to the candidate set).
//
// Picks are weighted rendezvous (highest-random-weight) hashing of the
// routing key over the scores. A key therefore keeps landing on the same
// replica while the scores hold steady — the fleet analog of running tasks
// that touch the same data on the same tile — so each replica's result LRU
// holds its own share of the working set instead of a copy of everyone's
// hot points. Across keys, replica i still draws the share
// score_i/Σscore, so slow or failing replicas shed traffic as before.
type adaptive struct {
	mu    sync.Mutex
	score []float64
	ref   float64 // EWMA of success latency (seconds) across the fleet
}

func newAdaptive(n int) *adaptive {
	a := &adaptive{score: make([]float64, n)}
	for i := range a.score {
		a.score[i] = scoreInit
	}
	return a
}

// Pick gives each candidate c the weight -ln(u)/score[c], where
// u = unitHash(key, c), and returns the lightest. -ln(u) is an Exp(1)
// draw, so each weight is an Exp(score[c]) draw and candidate c is the
// minimum with probability score[c]/Σscore. A candidate's weight does not
// depend on the others, so dropping one moves only the keys it held.
func (a *adaptive) Pick(key uint64, candidates []int) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	best, bestW := candidates[0], math.Inf(1)
	for _, c := range candidates {
		if w := -math.Log(unitHash(key, c)) / a.score[c]; w < bestW {
			best, bestW = c, w
		}
	}
	return best
}

// unitHash maps (key, replica) to a uniform value in the open interval
// (0, 1): the top 53 bits of a mixed hash, offset by half a step so
// neither end is reachable.
func unitHash(key uint64, replica int) float64 {
	h := hashutil.SplitMix64(key ^ hashutil.SplitMix64(uint64(replica)))
	return (float64(h>>11) + 0.5) / (1 << 53)
}

func (a *adaptive) failure(i int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.score[i] *= failDecay
	if a.score[i] < scoreMin {
		a.score[i] = scoreMin
	}
}

func (a *adaptive) success(i int, latency time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	lat := latency.Seconds()
	if lat <= 0 {
		lat = 1e-9
	}
	if a.ref == 0 {
		a.ref = lat
	} else {
		a.ref = (1-refAlpha)*a.ref + refAlpha*lat
	}
	// Reinforce toward relative speed: 1.0 for a fleet-average success,
	// above for faster-than-average replicas, below for stragglers.
	target := a.ref / lat
	if target > scoreMax {
		target = scoreMax
	}
	if target < scoreMin {
		target = scoreMin
	}
	a.score[i] = (1-reinforceAlpha)*a.score[i] + reinforceAlpha*target
	if a.score[i] > scoreMax {
		a.score[i] = scoreMax
	} else if a.score[i] < scoreMin {
		a.score[i] = scoreMin
	}
}

func (a *adaptive) Scores() []float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]float64, len(a.score))
	copy(out, a.score)
	return out
}
