package bench

import (
	"fmt"
	"math/rand"

	"swarmhints/internal/workload"
	"swarmhints/swarm"
)

// Maximal independent set over the CSR graph infrastructure: the classic
// priority-greedy MIS (Luby-style with a fixed random priority order, as in
// the ordered-algorithm suites Swarm targets). Vertex v joins the set iff no
// higher-priority neighbor joined; one task per vertex, ordered by priority
// rank, reading earlier neighbors' decisions and writing its own — the same
// multi-hint read-write shape as graph coloring, but with binary state and
// an early exit, so abort behavior differs.

// misState values stored in the per-vertex data word.
const (
	misUndecided = 0
	misIn        = 1
	misOut       = 2
)

// misRanks assigns each vertex a distinct random priority rank from seed:
// rank[v] is v's position in the greedy order (and its task timestamp).
func misRanks(n int, seed int64) []int {
	order := rand.New(rand.NewSource(seed ^ 0x6d6973)).Perm(n)
	rank := make([]int, n)
	for pos, v := range order {
		rank[v] = pos
	}
	return rank
}

// refMIS computes the serial greedy MIS in rank order.
func refMIS(g *workload.Graph, rank []int) []uint64 {
	order := make([]int, g.N)
	for v, r := range rank {
		order[r] = v
	}
	state := make([]uint64, g.N)
	for _, v := range order {
		s := uint64(misIn)
		g.Edges(v, func(n int, _ uint32) {
			if rank[n] < rank[v] && state[n] == misIn {
				s = misOut
			}
		})
		state[v] = s
	}
	return state
}

// BuildMIS is the maximal-independent-set benchmark: tasks ordered by a
// random priority, each reading its earlier-ranked neighbors' membership and
// writing its own (hint: cache line of vertex, like the graph benchmarks of
// Table I).
func BuildMIS(scale Scale, seed int64) *Instance {
	g := graphForScale("mis", scale, seed)
	p := swarm.NewProgram()
	sg := layoutGraph(p, g, misUndecided)
	rank := misRanks(g.N, seed)
	// Ranks live in simulated read-only memory; tasks read them to decide
	// which neighbors precede them.
	rankBase := p.Mem.AllocWords(uint64(g.N))
	for v := 0; v < g.N; v++ {
		p.Mem.StoreRaw(rankBase+uint64(v)*8, uint64(rank[v]))
	}
	fn := p.Register("misTask", func(c *swarm.Ctx) {
		v := c.Arg(0)
		myRank := c.TS()
		state := uint64(misIn)
		sg.visitNeighbors(c, v, func(n, _ uint64) {
			if state == misIn && c.Read(rankBase+n*8) < myRank &&
				c.Read(sg.dataAddr(n)) == misIn {
				state = misOut
			}
		})
		c.Write(sg.dataAddr(v), state)
	})
	for v := 0; v < g.N; v++ {
		p.EnqueueRoot(fn, uint64(rank[v]), lineOf(sg.dataAddr(uint64(v))), uint64(v))
	}
	want := refMIS(g, rank)
	return &Instance{
		Name: "mis", Prog: p, Ordered: true,
		Validate: func() error {
			return validateMIS(p, sg, want, "mis")
		},
	}
}

// validateMIS checks the committed state against the serial reference and
// asserts the defining MIS properties outright: independence (no two
// adjacent members) and maximality (every non-member has a member neighbor).
func validateMIS(p *swarm.Program, sg *simGraph, want []uint64, what string) error {
	for v := 0; v < sg.g.N; v++ {
		got := p.Mem.Load(sg.dataAddr(uint64(v)))
		if got != want[v] {
			return fmt.Errorf("%s: vertex %d state %d, want %d", what, v, got, want[v])
		}
	}
	for v := 0; v < sg.g.N; v++ {
		sv := p.Mem.Load(sg.dataAddr(uint64(v)))
		if sv == misUndecided {
			return fmt.Errorf("%s: vertex %d undecided", what, v)
		}
		hasInNeighbor := false
		var bad error
		sg.g.Edges(v, func(n int, _ uint32) {
			sn := p.Mem.Load(sg.dataAddr(uint64(n)))
			if sv == misIn && sn == misIn && bad == nil {
				bad = fmt.Errorf("%s: adjacent vertices %d and %d both in the set", what, v, n)
			}
			if sn == misIn {
				hasInNeighbor = true
			}
		})
		if bad != nil {
			return bad
		}
		if sv == misOut && !hasInNeighbor {
			return fmt.Errorf("%s: vertex %d excluded without a member neighbor (not maximal)", what, v)
		}
	}
	return nil
}
