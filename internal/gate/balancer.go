package gate

import "swarmhints/internal/hashutil"

// BalancerAdaptive names the gateway's only routing policy, the key-routed
// one: the Options.Balancer value that selects it.
const BalancerAdaptive = "adaptive"

// pickHome returns the candidate (never empty) that the work whose routing
// hint is key calls home: the one with the largest unitHash(key, c), i.e.
// unweighted rendezvous (highest-random-weight) hashing. The key is a hash
// of the point's canonical configuration key, so every attempt at one
// point routes the same way and each replica's result LRU holds its own
// share of the working set — the fleet analog of running tasks that touch
// the same data on the same tile. A candidate's hash does not depend on
// the others, so dropping one (unhealthy, breaker open, or excluded after
// a failure) moves only the keys it held, each to its next-ranked replica.
func pickHome(key uint64, candidates []int) int {
	best, bestU := candidates[0], 0.0
	for _, c := range candidates {
		if u := unitHash(key, c); u > bestU {
			best, bestU = c, u
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
