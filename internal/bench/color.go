package bench

import (
	"fmt"
	"sort"

	"swarmhints/internal/workload"
	"swarmhints/swarm"
)

// ldfRanks computes the largest-degree-first order [30, 71]: vertices
// sorted by decreasing degree, ties by vertex id. rank[v] is v's position
// (its task timestamp); a vertex considers only earlier-ranked neighbors
// when choosing its color, so the serial result is deterministic.
func ldfRanks(g *workload.Graph) []int {
	order := make([]int, g.N)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		da, db := g.Degree(order[a]), g.Degree(order[b])
		if da != db {
			return da > db
		}
		return order[a] < order[b]
	})
	rank := make([]int, g.N)
	for pos, v := range order {
		rank[v] = pos
	}
	return rank
}

// refColor computes the serial LDF coloring (colors start at 1).
func refColor(g *workload.Graph, rank []int) []uint64 {
	order := make([]int, g.N)
	for v, r := range rank {
		order[r] = v
	}
	colors := make([]uint64, g.N)
	for _, v := range order {
		used := map[uint64]bool{}
		g.Edges(v, func(n int, _ uint32) {
			if rank[n] < rank[v] {
				used[colors[n]] = true
			}
		})
		c := uint64(1)
		for used[c] {
			c++
		}
		colors[v] = c
	}
	return colors
}

func validateColors(p *swarm.Program, sg *simGraph, want []uint64, what string) error {
	for v := 0; v < sg.g.N; v++ {
		got := p.Mem.Load(sg.dataAddr(uint64(v)))
		if got != want[v] {
			return fmt.Errorf("%s: vertex %d color %d, want %d", what, v, got, want[v])
		}
	}
	// Also assert a proper coloring outright.
	for v := 0; v < sg.g.N; v++ {
		cv := p.Mem.Load(sg.dataAddr(uint64(v)))
		var bad error
		sg.g.Edges(v, func(n int, _ uint32) {
			if bad == nil && p.Mem.Load(sg.dataAddr(uint64(n))) == cv {
				bad = fmt.Errorf("%s: adjacent vertices %d and %d share color %d", what, v, n, cv)
			}
		})
		if bad != nil {
			return bad
		}
	}
	return nil
}

// BuildColorCG is the coarse-grain graph coloring: one task per vertex,
// ordered by LDF rank, reading every earlier neighbor's color and writing
// its own (multi-hint read-write reads, Sec. IV-B).
func BuildColorCG(scale Scale, seed int64) *Instance {
	g := graphForScale("color", scale, seed)
	p := swarm.NewProgram()
	sg := layoutGraph(p, g, 0)
	rank := ldfRanks(g)
	// Ranks live in simulated read-only memory; tasks read them to decide
	// which neighbors precede them.
	rankBase := p.Mem.AllocWords(uint64(g.N))
	for v := 0; v < g.N; v++ {
		p.Mem.StoreRaw(rankBase+uint64(v)*8, uint64(rank[v]))
	}
	fn := p.Register("colorTask", func(c *swarm.Ctx) {
		v := c.Arg(0)
		myRank := c.TS()
		used := map[uint64]bool{}
		sg.visitNeighbors(c, v, func(n, _ uint64) {
			if c.Read(rankBase+n*8) < myRank {
				used[c.Read(sg.dataAddr(n))] = true
			}
		})
		col := uint64(1)
		for used[col] {
			col++
		}
		c.Write(sg.dataAddr(v), col)
	})
	for v := 0; v < g.N; v++ {
		p.EnqueueRoot(fn, uint64(rank[v]), lineOf(sg.dataAddr(uint64(v))), uint64(v))
	}
	want := refColor(g, rank)
	return &Instance{
		Name: "color", Prog: p, Ordered: true,
		Validate: func() error {
			return validateColors(p, sg, want, "color")
		},
	}
}

// BuildColorFG is the fine-grain coloring of Sec. V: the per-vertex
// operation splits into four task types, each reading or writing at most
// one vertex's state. Gather tasks read one neighbor's color and forward
// it by argument; update tasks fold it into the vertex's scratch mask and
// count down; the assign task picks the smallest free color.
//
// Timestamps interleave as rank*4 + phase so every gather runs after its
// neighbor's assign in speculative order.
func BuildColorFG(scale Scale, seed int64) *Instance {
	g := graphForScale("color", scale, seed)
	p := swarm.NewProgram()
	sg := layoutGraph(p, g, 0)
	rank := ldfRanks(g)

	// Earlier-neighbor lists are static graph structure, precomputed.
	earlier := make([][]uint64, g.N)
	maxDeg := 0
	for v := 0; v < g.N; v++ {
		g.Edges(v, func(n int, _ uint32) {
			if rank[n] < rank[v] {
				earlier[v] = append(earlier[v], uint64(n))
			}
		})
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	maskWords := uint64(maxDeg/64 + 2)
	pending := p.Mem.AllocWords(uint64(g.N))
	masks := p.Mem.AllocWords(uint64(g.N) * maskWords)
	for v := 0; v < g.N; v++ {
		p.Mem.StoreRaw(pending+uint64(v)*8, uint64(len(earlier[v])))
	}
	maskAddr := func(v, word uint64) uint64 { return masks + (v*maskWords+word)*8 }
	tsOf := func(v uint64, phase uint64) uint64 { return uint64(rank[v])*4 + phase }

	var gatherFn, updateFn, assignFn swarm.FnID
	assignFn = p.Register("colorAssign", func(c *swarm.Ctx) {
		v := c.Arg(0)
		col := uint64(1)
		for {
			word := col / 64
			if c.Read(maskAddr(v, word))&(1<<(col%64)) == 0 {
				break
			}
			col++
		}
		c.Write(sg.dataAddr(v), col)
	})
	updateFn = p.Register("colorUpdate", func(c *swarm.Ctx) {
		v, cu := c.Arg(0), c.Arg(1)
		word := cu / 64
		c.Write(maskAddr(v, word), c.Read(maskAddr(v, word))|1<<(cu%64))
		left := c.Read(pending+v*8) - 1
		c.Write(pending+v*8, left)
		if left == 0 {
			c.Enqueue(assignFn, tsOf(v, 3), lineOf(sg.dataAddr(v)), v)
		}
	})
	gatherFn = p.Register("colorGather", func(c *swarm.Ctx) {
		v, u := c.Arg(0), c.Arg(1)
		cu := c.Read(sg.dataAddr(u))
		c.Enqueue(updateFn, tsOf(v, 2), lineOf(pending+v*8), v, cu)
	})
	startFn := p.Register("colorStart", func(c *swarm.Ctx) {
		v := c.Arg(0)
		if len(earlier[v]) == 0 {
			c.Enqueue(assignFn, tsOf(v, 3), lineOf(sg.dataAddr(v)), v)
			return
		}
		for _, u := range earlier[v] {
			c.Enqueue(gatherFn, tsOf(v, 1), lineOf(sg.dataAddr(u)), v, u)
		}
	})
	for v := 0; v < g.N; v++ {
		p.EnqueueRoot(startFn, tsOf(uint64(v), 0), lineOf(sg.dataAddr(uint64(v))), uint64(v))
	}
	want := refColor(g, rank)
	return &Instance{
		Name: "color-fg", Prog: p, Ordered: true,
		Validate: func() error {
			return validateColors(p, sg, want, "color-fg")
		},
	}
}
