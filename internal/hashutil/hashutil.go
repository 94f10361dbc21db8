// Package hashutil provides the hash functions used throughout the
// simulator: the fixed hint-to-tile, hint-to-bucket, and 16-bit hashed-hint
// functions described in Sections III-B and VI of the paper, and the H3
// universal family (Carter–Wegman) that Swarm's Bloom signatures hash with.
// The simulator resolves conflicts with a precise index and no longer models
// signatures, so H3 currently has no caller outside its tests.
package hashutil

// SplitMix64 is a fast, well-distributed 64-bit mixer. It backs the fixed
// hint hashes: deterministic across runs, no per-run salt, so the same hint
// always maps to the same tile/bucket within a configuration.
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// HintHash16 returns the 16-bit hashed hint that tasks carry throughout
// their lifetime and that task dispatch compares against running tasks
// (Sec. III-B, "Serializing conflicting tasks").
func HintHash16(hint uint64) uint16 {
	return uint16(SplitMix64(hint))
}

// HintToTile hashes a 64-bit hint down to a tile ID in [0, numTiles).
func HintToTile(hint uint64, numTiles int) int {
	if numTiles <= 1 {
		return 0
	}
	return int(SplitMix64(hint^0xa5a5a5a5) % uint64(numTiles))
}

// HintToBucket hashes a hint to a bucket for the LBHints tile map
// (Sec. VI, "Configurable hint-to-tile mapping with buckets").
func HintToBucket(hint uint64, numBuckets int) int {
	if numBuckets <= 1 {
		return 0
	}
	return int(SplitMix64(hint^0x5bd1e995) % uint64(numBuckets))
}

// H3 implements an H3 universal hash function h(x) = XOR of q[i] over the set
// bits i of x, as used by Swarm's Bloom-filter conflict signatures [12]. Each
// instance is parameterized by a 64-entry table of random words. Nothing in
// the simulator calls it since the signatures were removed.
//
// Hashing is byte-sliced: because H3 is linear under XOR, the contribution of
// every input byte can be precomputed into a 256-entry table, turning the
// 64-iteration bit loop into 8 table lookups. The function values are
// identical to the bit-by-bit definition (hashRef below), which keeps every
// signature deterministic across this optimization.
type H3 struct {
	q   [64]uint64
	tab [8][256]uint64 // tab[j][b] = XOR of q[8j+i] over the set bits i of b
}

// NewH3 builds an H3 hash function seeded deterministically from seed.
func NewH3(seed uint64) *H3 {
	h := &H3{}
	s := seed
	for i := range h.q {
		s = SplitMix64(s + uint64(i) + 1)
		h.q[i] = s
	}
	for j := range h.tab {
		for b := 1; b < 256; b++ {
			lsb := b & -b
			bit := 0
			for 1<<bit != lsb {
				bit++
			}
			h.tab[j][b] = h.tab[j][b^lsb] ^ h.q[8*j+bit]
		}
	}
	return h
}

// Hash returns the H3 hash of x.
func (h *H3) Hash(x uint64) uint64 {
	return h.tab[0][byte(x)] ^
		h.tab[1][byte(x>>8)] ^
		h.tab[2][byte(x>>16)] ^
		h.tab[3][byte(x>>24)] ^
		h.tab[4][byte(x>>32)] ^
		h.tab[5][byte(x>>40)] ^
		h.tab[6][byte(x>>48)] ^
		h.tab[7][byte(x>>56)]
}

// hashRef is the bit-by-bit H3 definition, kept as the reference the
// byte-sliced tables are tested against.
func (h *H3) hashRef(x uint64) uint64 {
	var out uint64
	for i := 0; x != 0; i++ {
		if x&1 != 0 {
			out ^= h.q[i]
		}
		x >>= 1
	}
	return out
}

// Bank returns Hash(x) folded into [0, n).
func (h *H3) Bank(x uint64, n int) int {
	if n <= 1 {
		return 0
	}
	return int(h.Hash(x) % uint64(n))
}
