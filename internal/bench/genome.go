package bench

import (
	"fmt"

	"swarmhints/internal/hashutil"
	"swarmhints/internal/workload"
	"swarmhints/swarm"
)

// genome is the STAMP gene-sequencing port (Table I): unordered
// transactions implemented as equal-phase-timestamp tasks. Phase 1
// deduplicates the shuffled, duplicated segments through a shared hash
// table; phase 2 inserts unique segments into a prefix-keyed match table;
// phase 3 links each unique segment to its overlap successor. Hints follow
// the paper's mix: deduplication tasks are NOHINT (the bucket is unknown
// until the content is hashed), their children use concrete map-key hints
// or SAMEHINT (Table I: "Elem addr, map key, NO/SAMEHINT").

func genomeScaleParams(scale Scale) (nUnique, segWords, dups int) {
	switch scale {
	case Tiny:
		return 60, 3, 3
	case Small:
		return 1200, 4, 4
	default:
		return 4000, 4, 4
	}
}

// BuildGenome builds the sequencing program.
func BuildGenome(scale Scale, seed int64) *Instance {
	nUnique, segWords, dups := genomeScaleParams(scale)
	in := workload.Genome(nUnique, segWords, dups, seed)
	nTotal := len(in.Segments) / in.SegWords
	tableSize := uint64(4 * nUnique)

	p := swarm.NewProgram()
	segs := p.Mem.AllocWords(uint64(len(in.Segments)))
	for i, w := range in.Segments {
		p.Mem.StoreRaw(segs+uint64(i)*8, w)
	}
	dedupTable := p.Mem.AllocWords(tableSize)
	prefixTable := p.Mem.AllocWords(tableSize)
	next := p.Mem.AllocWords(uint64(nTotal))
	linked := p.Mem.AllocWords(uint64(nTotal))

	segWord := func(c *swarm.Ctx, seg, w uint64) uint64 {
		return c.Read(segs + (seg*uint64(in.SegWords)+w)*8)
	}
	hashContent := func(words []uint64) uint64 {
		h := uint64(0x9e3779b97f4a7c15)
		for _, w := range words {
			h = hashutil.SplitMix64(h ^ w)
		}
		return h
	}

	var prefixFn, matchFn, linkStatFn swarm.FnID
	linkStatFn = p.Register("genomeLinkStat", func(c *swarm.Ctx) {
		i := c.Arg(0)
		c.Write(linked+i*8, c.Read(linked+i*8)+1)
	})
	matchFn = p.Register("genomeMatch", func(c *swarm.Ctx) {
		i := c.Arg(0)
		last := segWord(c, i, uint64(in.SegWords-1))
		b := hashutil.SplitMix64(last) % tableSize
		for {
			x := c.Read(prefixTable + b*8)
			if x == 0 {
				return // no successor
			}
			j := x - 1
			if segWord(c, j, 0) == last {
				c.Write(next+i*8, x)
				c.EnqueueSameHint(linkStatFn, c.TS()+1, i)
				return
			}
			b = (b + 1) % tableSize
		}
	})
	prefixFn = p.Register("genomePrefixInsert", func(c *swarm.Ctx) {
		i := c.Arg(0)
		first := segWord(c, i, 0)
		b := hashutil.SplitMix64(first) % tableSize
		for c.Read(prefixTable+b*8) != 0 {
			b = (b + 1) % tableSize // prefix words are unique; only hash collisions probe
		}
		c.Write(prefixTable+b*8, i+1)
	})
	dedupFn := p.Register("genomeDedup", func(c *swarm.Ctx) {
		i := c.Arg(0)
		mine := make([]uint64, in.SegWords)
		for w := range mine {
			mine[w] = segWord(c, i, uint64(w))
		}
		b := hashContent(mine) % tableSize
		for {
			x := c.Read(dedupTable + b*8)
			if x == 0 {
				// First copy of this content in speculative order: insert
				// and continue to the matching phases.
				c.Write(dedupTable+b*8, i+1)
				pb := hashutil.SplitMix64(mine[0]) % tableSize
				mb := hashutil.SplitMix64(mine[uint64(in.SegWords-1)]) % tableSize
				c.Enqueue(prefixFn, 1, pb, i)
				c.Enqueue(matchFn, 2, mb, i)
				return
			}
			j := x - 1
			equal := true
			for w := 0; w < in.SegWords; w++ {
				if segWord(c, j, uint64(w)) != mine[w] {
					equal = false
					break
				}
			}
			if equal {
				return // duplicate: drop
			}
			b = (b + 1) % tableSize
		}
	})
	for i := 0; i < nTotal; i++ {
		p.EnqueueRootNoHint(dedupFn, 0, uint64(i))
	}

	ref := refGenome(in)
	return &Instance{
		Name: "genome", Prog: p, Ordered: false,
		Validate: func() error {
			for i := 0; i < nTotal; i++ {
				got := p.Mem.Load(next + uint64(i)*8)
				if got != ref.next[i] {
					return fmt.Errorf("genome: next[%d] = %d, want %d", i, got, ref.next[i])
				}
				wantLinked := uint64(0)
				if ref.next[i] != 0 {
					wantLinked = 1
				}
				if got := p.Mem.Load(linked + uint64(i)*8); got != wantLinked {
					return fmt.Errorf("genome: linked[%d] = %d, want %d", i, got, wantLinked)
				}
			}
			return nil
		},
	}
}

// refGenome computes the reference: the first copy (in root order) of each
// unique content wins deduplication; each winner's successor is the winner
// holding the content that starts with the winner's last word.
type genomeRef struct {
	next []uint64
}

func refGenome(in *workload.GenomeInput) *genomeRef {
	nTotal := len(in.Segments) / in.SegWords
	firstWord := func(s int) uint64 { return in.Segments[s*in.SegWords] }
	lastWord := func(s int) uint64 { return in.Segments[(s+1)*in.SegWords-1] }
	// Winner per unique content: first occurrence by first-word (unique
	// per content by construction).
	winnerByPrefix := map[uint64]int{}
	for s := 0; s < nTotal; s++ {
		if _, seen := winnerByPrefix[firstWord(s)]; !seen {
			winnerByPrefix[firstWord(s)] = s
		}
	}
	r := &genomeRef{next: make([]uint64, nTotal)}
	for _, w := range winnerByPrefix {
		if succ, ok := winnerByPrefix[lastWord(w)]; ok {
			r.next[w] = uint64(succ) + 1
		}
	}
	return r
}
