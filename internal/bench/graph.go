package bench

import (
	"fmt"

	"swarmhints/internal/workload"
	"swarmhints/swarm"
)

// simGraph lays a CSR graph out in simulated memory: a per-vertex data word
// (distance, g-score, or color), the CSR offsets, packed adjacency words
// (dst<<32 | weight), and packed coordinates for geometric graphs. Task
// bodies walk these through Ctx.Read, so neighbor-list traversal costs real
// simulated memory accesses, as in Listing 2.
type simGraph struct {
	g     *workload.Graph
	data  uint64 // N records of vertexStride words each
	off   uint64 // N+1 words
	adj   uint64 // M words
	coord uint64 // N words (x<<32|y), 0 if no coordinates
}

// vertexStride spaces per-vertex records one cache line apart. Real vertex
// records carry several fields (distance, flags, parent, lock word…); at
// our scaled-down graph sizes one-line records also keep the number of
// distinct active hints comfortably above the tile count, matching the
// regime of the paper's multi-million-vertex inputs (DESIGN.md Sec. 5).
const vertexStride = 8

func layoutGraph(p *swarm.Program, g *workload.Graph, init uint64) *simGraph {
	sg := &simGraph{
		g:    g,
		data: p.Mem.AllocWords(uint64(g.N) * vertexStride),
		off:  p.Mem.AllocWords(uint64(g.N + 1)),
		adj:  p.Mem.AllocWords(uint64(len(g.Dst))),
	}
	for v := 0; v < g.N; v++ {
		p.Mem.StoreRaw(sg.data+uint64(v)*vertexStride*8, init)
	}
	for v := 0; v <= g.N; v++ {
		p.Mem.StoreRaw(sg.off+uint64(v)*8, uint64(g.Off[v]))
	}
	for i, d := range g.Dst {
		p.Mem.StoreRaw(sg.adj+uint64(i)*8, uint64(d)<<32|uint64(g.W[i]))
	}
	if g.X != nil {
		sg.coord = p.Mem.AllocWords(uint64(g.N))
		for v := 0; v < g.N; v++ {
			p.Mem.StoreRaw(sg.coord+uint64(v)*8, uint64(uint32(g.X[v]))<<32|uint64(uint32(g.Y[v])))
		}
	}
	return sg
}

func (sg *simGraph) dataAddr(v uint64) uint64 { return sg.data + v*vertexStride*8 }

// visitNeighbors reads the CSR range and adjacency words through the task
// context and calls fn(dst, weight) for each edge of v.
func (sg *simGraph) visitNeighbors(c *swarm.Ctx, v uint64, fn func(n uint64, w uint64)) {
	lo := c.Read(sg.off + v*8)
	hi := c.Read(sg.off + (v+1)*8)
	for i := lo; i < hi; i++ {
		packed := c.Read(sg.adj + i*8)
		fn(packed>>32, packed&0xffffffff)
	}
}

func graphForScale(name string, scale Scale, seed int64) *workload.Graph {
	switch name {
	case "bfs": // hugetric substitute
		switch scale {
		case Tiny:
			return workload.TriGrid(14, 14)
		case Small:
			return workload.TriGrid(40, 40)
		default:
			return workload.TriGrid(90, 90)
		}
	case "sssp", "astar": // road-map substitute
		switch scale {
		case Tiny:
			return workload.RoadMap(14, 14, seed)
		case Small:
			return workload.RoadMap(40, 40, seed)
		default:
			return workload.RoadMap(85, 85, seed)
		}
	case "color": // com-youtube substitute
		switch scale {
		case Tiny:
			return workload.PowerLaw(220, 2, seed)
		case Small:
			return workload.PowerLaw(1200, 3, seed)
		default:
			return workload.PowerLaw(5000, 3, seed)
		}
	case "mis": // social-graph MIS over the same power-law family
		switch scale {
		case Tiny:
			return workload.PowerLaw(260, 2, seed)
		case Small:
			return workload.PowerLaw(1400, 3, seed)
		default:
			return workload.PowerLaw(5600, 3, seed)
		}
	}
	panic("unknown graph benchmark " + name)
}

// --- serial references ---

// refBFS returns BFS distances from src (unset when unreachable).
func refBFS(g *workload.Graph, src int) []uint64 {
	dist := make([]uint64, g.N)
	for i := range dist {
		dist[i] = unset
	}
	dist[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		g.Edges(v, func(n int, _ uint32) {
			if dist[n] == unset {
				dist[n] = dist[v] + 1
				queue = append(queue, n)
			}
		})
	}
	return dist
}

// refDijkstra returns shortest-path distances from src.
func refDijkstra(g *workload.Graph, src int) []uint64 {
	dist := make([]uint64, g.N)
	for i := range dist {
		dist[i] = unset
	}
	dist[src] = 0
	type item struct {
		d uint64
		v int
	}
	heap := []item{{0, src}}
	push := func(it item) {
		heap = append(heap, it)
		i := len(heap) - 1
		for i > 0 {
			p := (i - 1) / 2
			if heap[p].d <= heap[i].d {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() item {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		i := 0
		for {
			l, r, s := 2*i+1, 2*i+2, i
			if l < len(heap) && heap[l].d < heap[s].d {
				s = l
			}
			if r < len(heap) && heap[r].d < heap[s].d {
				s = r
			}
			if s == i {
				break
			}
			heap[i], heap[s] = heap[s], heap[i]
			i = s
		}
		return top
	}
	for len(heap) > 0 {
		it := pop()
		if it.d != dist[it.v] {
			continue
		}
		g.Edges(it.v, func(n int, w uint32) {
			if nd := it.d + uint64(w); nd < dist[n] {
				dist[n] = nd
				push(item{nd, n})
			}
		})
	}
	return dist
}

func validateDistances(p *swarm.Program, sg *simGraph, want []uint64, what string) error {
	for v := 0; v < sg.g.N; v++ {
		if got := p.Mem.Load(sg.dataAddr(uint64(v))); got != want[v] {
			return fmt.Errorf("%s: vertex %d distance %d, want %d", what, v, got, want[v])
		}
	}
	return nil
}

// --- bfs ---

// BuildBFSCG is the coarse-grain breadth-first search of Table I: each task
// visits one vertex and sets the distances of its unvisited neighbors
// (multi-hint read-write, like Listing 2's structure).
func BuildBFSCG(scale Scale, seed int64) *Instance {
	g := graphForScale("bfs", scale, seed)
	p := swarm.NewProgram()
	sg := layoutGraph(p, g, unset)
	var fn swarm.FnID
	fn = p.Register("bfsVisit", func(c *swarm.Ctx) {
		v := c.Arg(0)
		if c.Read(sg.dataAddr(v)) != c.TS() {
			return // stale visit
		}
		sg.visitNeighbors(c, v, func(n, _ uint64) {
			if c.Read(sg.dataAddr(n)) == unset {
				c.Write(sg.dataAddr(n), c.TS()+1)
				c.Enqueue(fn, c.TS()+1, lineOf(sg.dataAddr(n)), n)
			}
		})
	})
	p.Mem.StoreRaw(sg.dataAddr(0), 0)
	p.EnqueueRoot(fn, 0, lineOf(sg.dataAddr(0)), 0)
	want := refBFS(g, 0)
	return &Instance{
		Name: "bfs", Prog: p, Ordered: true,
		Validate: func() error {
			return validateDistances(p, sg, want, "bfs")
		},
	}
}

// BuildBFSFG is the fine-grain bfs of Sec. V: each task touches only its
// own vertex's distance and enqueues one child per neighbor, making all
// read-write data single-hint (Listing 3's structure with unit weights).
func BuildBFSFG(scale Scale, seed int64) *Instance {
	g := graphForScale("bfs", scale, seed)
	p := swarm.NewProgram()
	sg := layoutGraph(p, g, unset)
	var fn swarm.FnID
	fn = p.Register("bfsVisitFG", func(c *swarm.Ctx) {
		v := c.Arg(0)
		if c.Read(sg.dataAddr(v)) == unset {
			c.Write(sg.dataAddr(v), c.TS())
			sg.visitNeighbors(c, v, func(n, _ uint64) {
				c.Enqueue(fn, c.TS()+1, lineOf(sg.dataAddr(n)), n)
			})
		}
	})
	p.EnqueueRoot(fn, 0, lineOf(sg.dataAddr(0)), 0)
	want := refBFS(g, 0)
	return &Instance{
		Name: "bfs-fg", Prog: p, Ordered: true,
		Validate: func() error {
			return validateDistances(p, sg, want, "bfs-fg")
		},
	}
}

// --- sssp ---

// BuildSSSPCG is Listing 2 verbatim: Dijkstra-ordered tasks that relax all
// neighbors of their vertex.
func BuildSSSPCG(scale Scale, seed int64) *Instance {
	g := graphForScale("sssp", scale, seed)
	p := swarm.NewProgram()
	sg := layoutGraph(p, g, unset)
	var fn swarm.FnID
	fn = p.Register("ssspTask", func(c *swarm.Ctx) {
		v := c.Arg(0)
		if c.TS() != c.Read(sg.dataAddr(v)) {
			return
		}
		sg.visitNeighbors(c, v, func(n, w uint64) {
			projected := c.TS() + w
			if projected < c.Read(sg.dataAddr(n)) {
				c.Write(sg.dataAddr(n), projected)
				c.Enqueue(fn, projected, lineOf(sg.dataAddr(n)), n)
			}
		})
	})
	p.Mem.StoreRaw(sg.dataAddr(0), 0)
	p.EnqueueRoot(fn, 0, lineOf(sg.dataAddr(0)), 0)
	want := refDijkstra(g, 0)
	return &Instance{
		Name: "sssp", Prog: p, Ordered: true,
		Validate: func() error {
			return validateDistances(p, sg, want, "sssp")
		},
	}
}

// BuildSSSPFG is Listing 3 verbatim: each task sets only its own vertex's
// distance on first visit and spawns one child per neighbor.
func BuildSSSPFG(scale Scale, seed int64) *Instance {
	g := graphForScale("sssp", scale, seed)
	p := swarm.NewProgram()
	sg := layoutGraph(p, g, unset)
	var fn swarm.FnID
	fn = p.Register("ssspTaskFG", func(c *swarm.Ctx) {
		v := c.Arg(0)
		if c.Read(sg.dataAddr(v)) == unset {
			c.Write(sg.dataAddr(v), c.TS())
			sg.visitNeighbors(c, v, func(n, w uint64) {
				c.Enqueue(fn, c.TS()+w, lineOf(sg.dataAddr(n)), n)
			})
		}
	})
	p.EnqueueRoot(fn, 0, lineOf(sg.dataAddr(0)), 0)
	want := refDijkstra(g, 0)
	return &Instance{
		Name: "sssp-fg", Prog: p, Ordered: true,
		Validate: func() error {
			return validateDistances(p, sg, want, "sssp-fg")
		},
	}
}

// --- astar ---

// manhattan is the admissible, consistent A* heuristic on the road grid
// (edge weights are ≥ 1 per unit of grid distance).
func manhattan(coord uint64, tx, ty int64) uint64 {
	x := int64(int32(coord >> 32))
	y := int64(int32(coord & 0xffffffff))
	dx, dy := x-tx, y-ty
	if dx < 0 {
		dx = -dx
	}
	if dy < 0 {
		dy = -dy
	}
	return uint64(dx + dy)
}

// BuildAstarCG runs A*-ordered shortest paths on the road map: task
// timestamps are f = g + h, so the earliest task is always the best
// frontier vertex; relaxations run to fixpoint, so final g-scores equal
// Dijkstra's distances (h only changes exploration order).
func BuildAstarCG(scale Scale, seed int64) *Instance {
	g := graphForScale("astar", scale, seed)
	p := swarm.NewProgram()
	sg := layoutGraph(p, g, unset)
	target := g.N - 1
	tx, ty := int64(g.X[target]), int64(g.Y[target])
	var fn swarm.FnID
	fn = p.Register("astarTask", func(c *swarm.Ctx) {
		v, gs := c.Arg(0), c.Arg(1)
		if gs != c.Read(sg.dataAddr(v)) {
			return
		}
		sg.visitNeighbors(c, v, func(n, w uint64) {
			gn := gs + w
			if gn < c.Read(sg.dataAddr(n)) {
				c.Write(sg.dataAddr(n), gn)
				h := manhattan(c.Read(sg.coord+n*8), tx, ty)
				c.Enqueue(fn, gn+h, lineOf(sg.dataAddr(n)), n, gn)
			}
		})
	})
	p.Mem.StoreRaw(sg.dataAddr(0), 0)
	h0 := manhattan(uint64(uint32(g.X[0]))<<32|uint64(uint32(g.Y[0])), tx, ty)
	p.EnqueueRoot(fn, h0, lineOf(sg.dataAddr(0)), 0, 0)
	want := refDijkstra(g, 0)
	return &Instance{
		Name: "astar", Prog: p, Ordered: true,
		Validate: func() error {
			return validateDistances(p, sg, want, "astar")
		},
	}
}

// BuildAstarFG is the fine-grain astar (Sec. V): first-visit-wins per
// vertex; heuristic consistency guarantees the first visit in timestamp
// order carries the optimal g.
func BuildAstarFG(scale Scale, seed int64) *Instance {
	g := graphForScale("astar", scale, seed)
	p := swarm.NewProgram()
	sg := layoutGraph(p, g, unset)
	target := g.N - 1
	tx, ty := int64(g.X[target]), int64(g.Y[target])
	var fn swarm.FnID
	fn = p.Register("astarTaskFG", func(c *swarm.Ctx) {
		v, gs := c.Arg(0), c.Arg(1)
		if c.Read(sg.dataAddr(v)) == unset {
			c.Write(sg.dataAddr(v), gs)
			sg.visitNeighbors(c, v, func(n, w uint64) {
				gn := gs + w
				h := manhattan(c.Read(sg.coord+n*8), tx, ty)
				c.Enqueue(fn, gn+h, lineOf(sg.dataAddr(n)), n, gn)
			})
		}
	})
	h0 := manhattan(uint64(uint32(g.X[0]))<<32|uint64(uint32(g.Y[0])), tx, ty)
	p.EnqueueRoot(fn, h0, lineOf(sg.dataAddr(0)), 0, 0)
	want := refDijkstra(g, 0)
	return &Instance{
		Name: "astar-fg", Prog: p, Ordered: true,
		Validate: func() error {
			return validateDistances(p, sg, want, "astar-fg")
		},
	}
}
