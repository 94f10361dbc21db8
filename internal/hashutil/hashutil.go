// Package hashutil provides the hash functions used throughout the
// simulator: the fixed hint-to-tile, hint-to-bucket, and 16-bit hashed-hint
// functions described in Sections III-B and VI of the paper. Swarm's Bloom
// signatures hash with the H3 family; the simulator resolves conflicts with
// a precise index instead, so it needs no H3.
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
