package hashutil

import (
	"testing"
	"testing/quick"
)

func TestSplitMix64Deterministic(t *testing.T) {
	if SplitMix64(42) != SplitMix64(42) {
		t.Fatal("SplitMix64 not deterministic")
	}
	if SplitMix64(1) == SplitMix64(2) {
		t.Fatal("adjacent inputs collide")
	}
}

func TestSplitMix64Distribution(t *testing.T) {
	// Sequential hints should spread roughly evenly over 64 tiles.
	const n, tiles = 64_000, 64
	counts := make([]int, tiles)
	for i := uint64(0); i < n; i++ {
		counts[HintToTile(i, tiles)]++
	}
	want := n / tiles
	for tile, c := range counts {
		if c < want/2 || c > want*2 {
			t.Fatalf("tile %d got %d hints, want near %d", tile, c, want)
		}
	}
}

func TestHintToTileRange(t *testing.T) {
	f := func(hint uint64, n uint8) bool {
		tiles := int(n%64) + 1
		tile := HintToTile(hint, tiles)
		return tile >= 0 && tile < tiles
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHintToTileSingleTile(t *testing.T) {
	for _, n := range []int{0, 1} {
		if got := HintToTile(12345, n); got != 0 {
			t.Fatalf("HintToTile(_, %d) = %d, want 0", n, got)
		}
	}
}

func TestHintToBucketRange(t *testing.T) {
	f := func(hint uint64) bool {
		b := HintToBucket(hint, 1024)
		return b >= 0 && b < 1024
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHintHash16DistinguishesHints(t *testing.T) {
	// The paper quotes ~6e-5 false-positive probability with 4 cores/tile;
	// over a small set of hints we expect near-zero 16-bit collisions.
	seen := make(map[uint16]uint64)
	collisions := 0
	for h := uint64(0); h < 1000; h++ {
		k := HintHash16(h)
		if _, dup := seen[k]; dup {
			collisions++
		}
		seen[k] = h
	}
	if collisions > 20 {
		t.Fatalf("too many 16-bit hint collisions: %d/1000", collisions)
	}
}
