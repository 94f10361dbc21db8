package bench

import (
	"fmt"

	"swarmhints/internal/workload"
	"swarmhints/swarm"
)

// kmeans is the STAMP K-means port (Table I): unordered per-phase tasks
// with two hint patterns — findCluster uses the point's cache line, and the
// centroid-update tasks use the cluster ID, co-locating and serializing all
// updates of one centroid on one tile (the paper's single-hint read-write
// hot spot that gives Hints its largest win, Sec. IV-C).

func kmeansScaleParams(scale Scale) (n, d, k, iters int) {
	switch scale {
	case Tiny:
		return 128, 4, 4, 3
	case Small:
		return 700, 4, 8, 4
	default:
		return 2048, 8, 16, 5
	}
}

// BuildKMeans builds the clustering program: `iters` fixed iterations (the
// paper fixes iteration count for run-to-run consistency, Sec. IV-A), each
// with an assignment phase, an accumulation phase, and a centroid-update
// phase, sequenced by timestamps.
func BuildKMeans(scale Scale, seed int64) *Instance {
	n, d, k, iters := kmeansScaleParams(scale)
	pts := workload.KMeansPoints(n, d, k, seed)

	p := swarm.NewProgram()
	du := uint64(d)
	// Points are padded to one cache line each (real points carry 24+
	// dimensions in the paper's input; padding keeps the hint cardinality
	// in the same regime at our scaled point counts).
	stride := (du + 7) &^ 7
	points := p.Mem.AllocWords(uint64(n) * stride)
	centroids := p.Mem.AllocWords(uint64(k) * du)
	accum := p.Mem.AllocWords(uint64(k) * du)
	counts := p.Mem.AllocWords(uint64(k))
	member := p.Mem.AllocWords(uint64(n))
	for pt := 0; pt < n; pt++ {
		for j := 0; j < d; j++ {
			p.Mem.StoreRaw(points+(uint64(pt)*stride+uint64(j))*8, uint64(pts.Coords[pt*d+j]))
		}
	}
	for c := 0; c < k; c++ { // initial centroids = first k points
		for j := 0; j < d; j++ {
			p.Mem.StoreRaw(centroids+uint64(c*d+j)*8, uint64(pts.Coords[c*d+j]))
		}
	}

	pointAddr := func(pt uint64) uint64 { return points + pt*stride*8 }
	base := func(iter uint64) uint64 { return iter * 4 }

	var findFn, accumFn, finalFn, driverFn swarm.FnID
	finalFn = p.Register("updateCentroid", func(c *swarm.Ctx) {
		cl := c.Arg(0)
		cnt := c.Read(counts + cl*8)
		if cnt > 0 {
			for j := uint64(0); j < du; j++ {
				sum := int64(c.Read(accum + (cl*du+j)*8))
				c.Write(centroids+(cl*du+j)*8, uint64(sum/int64(cnt)))
				c.Write(accum+(cl*du+j)*8, 0)
			}
			c.Write(counts+cl*8, 0)
		}
	})
	// updateCluster receives the point's coordinates as task arguments (the
	// findCluster task already read them), so its accesses touch only the
	// centroid's accumulators — single-hint read-write data that stays in
	// one tile's L1 under hint mapping.
	accumFn = p.Register("updateCluster", func(c *swarm.Ctx) {
		cl := c.Arg(0)
		for j := uint64(0); j < du; j++ {
			cur := int64(c.Read(accum + (cl*du+j)*8))
			c.Write(accum+(cl*du+j)*8, uint64(cur+int64(c.Arg(int(1+j)))))
		}
		c.Write(counts+cl*8, c.Read(counts+cl*8)+1)
	})
	findFn = p.Register("findCluster", func(c *swarm.Ctx) {
		pt := c.Arg(0)
		coords := make([]uint64, du)
		for j := uint64(0); j < du; j++ {
			coords[j] = c.Read(pointAddr(pt) + j*8)
		}
		best, bestDist := uint64(0), int64(1)<<62
		for cl := uint64(0); cl < uint64(k); cl++ {
			var dist int64
			for j := uint64(0); j < du; j++ {
				diff := int64(coords[j]) - int64(c.Read(centroids+(cl*du+j)*8))
				dist += diff * diff
			}
			c.Compute(uint64(3 * d)) // distance arithmetic
			if dist < bestDist {
				bestDist, best = dist, cl
			}
		}
		if c.Read(member+pt*8) != best+1 {
			c.Write(member+pt*8, best+1)
		}
		args := append([]uint64{best}, coords...)
		c.Enqueue(accumFn, c.TS()+1, 1_000_000+best, args...)
	})
	driverFn = p.Register("kmeansDriver", func(c *swarm.Ctx) {
		iter := c.Arg(0)
		if iter >= uint64(iters) {
			return
		}
		for pt := uint64(0); pt < uint64(n); pt++ {
			c.Enqueue(findFn, c.TS()+1, lineOf(pointAddr(pt)), pt)
		}
		for cl := uint64(0); cl < uint64(k); cl++ {
			c.Enqueue(finalFn, c.TS()+3, 1_000_000+cl, cl)
		}
		c.EnqueueNoHint(driverFn, base(iter+1), iter+1)
	})
	p.EnqueueRootNoHint(driverFn, 0, 0)

	wantMember, wantCentroids := refKMeans(pts, iters)
	return &Instance{
		Name: "kmeans", Prog: p, Ordered: false,
		Validate: func() error {
			for i := 0; i < n; i++ {
				if got := p.Mem.Load(member + uint64(i)*8); got != wantMember[i]+1 {
					return fmt.Errorf("kmeans: point %d in cluster %d, want %d", i, got, wantMember[i]+1)
				}
			}
			for i := range wantCentroids {
				if got := int64(p.Mem.Load(centroids + uint64(i)*8)); got != wantCentroids[i] {
					return fmt.Errorf("kmeans: centroid word %d = %d, want %d", i, got, wantCentroids[i])
				}
			}
			return nil
		},
	}
}

// refKMeans runs the identical fixed-point iteration serially.
func refKMeans(pts *workload.Points, iters int) (member []uint64, centroids []int64) {
	n, d, k := pts.N, pts.D, pts.K
	centroids = make([]int64, k*d)
	copy(centroids, pts.Coords[:k*d])
	member = make([]uint64, n)
	accum := make([]int64, k*d)
	counts := make([]int64, k)
	for it := 0; it < iters; it++ {
		for i := range accum {
			accum[i] = 0
		}
		for i := range counts {
			counts[i] = 0
		}
		for pt := 0; pt < n; pt++ {
			best, bestDist := 0, int64(1)<<62
			for cl := 0; cl < k; cl++ {
				var dist int64
				for j := 0; j < d; j++ {
					diff := pts.Coords[pt*d+j] - centroids[cl*d+j]
					dist += diff * diff
				}
				if dist < bestDist {
					bestDist, best = dist, cl
				}
			}
			member[pt] = uint64(best)
			for j := 0; j < d; j++ {
				accum[best*d+j] += pts.Coords[pt*d+j]
			}
			counts[best]++
		}
		for cl := 0; cl < k; cl++ {
			if counts[cl] > 0 {
				for j := 0; j < d; j++ {
					centroids[cl*d+j] = accum[cl*d+j] / counts[cl]
				}
			}
		}
	}
	return member, centroids
}
