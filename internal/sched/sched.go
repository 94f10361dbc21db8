// Package sched implements the four spatial task-mapping policies compared
// in the paper (Sec. II-C): Random, an idealized work-Stealing scheduler,
// hint-based mapping (Hints), and the data-centric load balancer (LBHints,
// Sec. VI) with its bucketed hint-to-tile indirection, committed-cycle
// profiling, and periodic greedy reconfiguration. It also provides the
// idle-task-proxy variant evaluated at the end of Sec. VI-A.
package sched

import (
	"fmt"
	"math/rand"

	"swarmhints/internal/hashutil"
	"swarmhints/internal/metrics"
	"swarmhints/internal/task"
)

// Kind selects the scheduling policy.
type Kind int

const (
	// Random sends each new task to a uniformly random tile (Swarm default).
	Random Kind = iota
	// Stealing enqueues locally; idle tiles steal the earliest-timestamp
	// task from the most-loaded tile with zero modeled overhead (Sec. II-C).
	Stealing
	// Hints hashes the task's spatial hint to a tile (Sec. III-B).
	Hints
	// LBHints adds the bucketed tile map and committed-cycle load balancer.
	LBHints
	// LBIdleProxy is LBHints but balancing idle-task counts instead of
	// committed cycles — the inferior proxy evaluated in Sec. VI-A.
	LBIdleProxy
)

// String names the policy as the paper's figure legends do.
func (k Kind) String() string {
	switch k {
	case Random:
		return "Random"
	case Stealing:
		return "Stealing"
	case Hints:
		return "Hints"
	case LBHints:
		return "LBHints"
	case LBIdleProxy:
		return "LBIdleTasks"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// BucketsPerTile is the tile-map granularity ("We find 16 buckets/tile
// works well", Sec. VI).
const BucketsPerTile = 16

// DefaultRebalanceFraction is f in Sec. VI: an under/overloaded tile only
// closes 80% of its deficit/surplus per reconfiguration to avoid
// oscillation.
const DefaultRebalanceFraction = 0.8

// Scheduler maps newly created tasks to tiles and, for the LB kinds,
// maintains the bucket tile map.
type Scheduler struct {
	kind  Kind
	tiles int
	rng   *rand.Rand
	rec   *metrics.Recorder

	// LB state.
	buckets      int
	tileMap      []int
	bucketCycles []uint64
	interval     uint64
	nextReconfig uint64
	fraction     float64

	// Reconfigure's working buffers, reused across calls.
	load, bucketLoad, surplus []float64
	order                     []int
	owned, tileBuckets        [][]int
	tileCycles                []uint64
}

// New builds a scheduler for the given tile count. seed fixes the RNG used
// for Random/NOHINT placement so runs are reproducible. Reconfiguration
// counts publish into rec; a nil rec gets a private recorder.
func New(kind Kind, tiles int, interval uint64, seed int64, rec *metrics.Recorder) *Scheduler {
	if rec == nil {
		rec = metrics.New(tiles)
	}
	s := &Scheduler{
		kind:     kind,
		tiles:    tiles,
		rng:      rand.New(rand.NewSource(seed)),
		rec:      rec,
		interval: interval,
		fraction: DefaultRebalanceFraction,
	}
	if kind == LBHints || kind == LBIdleProxy {
		s.buckets = BucketsPerTile * tiles
		s.tileMap = make([]int, s.buckets)
		s.bucketCycles = make([]uint64, s.buckets)
		for b := range s.tileMap {
			s.tileMap[b] = b % tiles // initial uniform division (Sec. VI)
		}
		s.load, s.surplus = make([]float64, tiles), make([]float64, tiles)
		s.bucketLoad = make([]float64, s.buckets)
		s.order = make([]int, tiles)
		s.owned, s.tileBuckets = make([][]int, tiles), make([][]int, tiles)
		s.tileCycles = make([]uint64, tiles)
		s.nextReconfig = interval
	}
	return s
}

// Kind returns the policy kind.
func (s *Scheduler) Kind() Kind { return s.kind }

// WantSteal reports whether the engine should run the stealing protocol.
func (s *Scheduler) WantSteal() bool { return s.kind == Stealing }

// SerializeSameHint reports whether dispatch should skip candidates whose
// hashed hint matches an earlier running task. Enabled for all hint-aware
// policies.
func (s *Scheduler) SerializeSameHint() bool {
	return s.kind == Hints || s.kind == LBHints || s.kind == LBIdleProxy
}

// Reconfigs returns how many tile-map reconfigurations have run.
func (s *Scheduler) Reconfigs() int { return int(s.rec.Reconfigs) }

// DestTile picks the destination tile for a newly created task and, for LB
// kinds, records the task's bucket.
func (s *Scheduler) DestTile(t *task.Task, srcTile int) int {
	switch s.kind {
	case Random:
		return s.rng.Intn(s.tiles)
	case Stealing:
		return srcTile // enqueue locally; stealing happens at dispatch
	case Hints:
		if t.HintKind == task.HintSame {
			return srcTile // SAMEHINT with a hint-less parent: stay local
		}
		if !t.HasHint() {
			return s.rng.Intn(s.tiles)
		}
		return hashutil.HintToTile(t.Hint, s.tiles)
	case LBHints, LBIdleProxy:
		if t.HintKind == task.HintSame {
			return srcTile
		}
		if !t.HasHint() {
			return s.rng.Intn(s.tiles)
		}
		b := hashutil.HintToBucket(t.Hint, s.buckets)
		t.Bucket = b
		return s.tileMap[b]
	}
	return 0
}

// OnCommit profiles a committed task's cycles into its bucket counter
// (Sec. VI, "Profiling committed cycles per bucket").
func (s *Scheduler) OnCommit(t *task.Task, cycles uint64) {
	if s.bucketCycles == nil || !t.HasHint() {
		return
	}
	s.bucketCycles[t.Bucket] += cycles
}

// ReconfigDue reports whether a tile-map reconfiguration should run at now.
func (s *Scheduler) ReconfigDue(now uint64) bool {
	return s.tileMap != nil && now >= s.nextReconfig
}

// Reconfigure rebalances the tile map. For LBHints the per-tile load is the
// sum of committed cycles of its buckets; for LBIdleProxy it is the supplied
// idle-task count per tile (spread over that tile's buckets proportionally
// to their cycle counters, or uniformly when unprofiled). Buckets migrate
// greedily from overloaded to underloaded tiles, each side closing at most
// fraction f of its imbalance. Counters reset afterwards so each window is
// profiled independently.
func (s *Scheduler) Reconfigure(now uint64, idlePerTile []int) {
	s.nextReconfig = now + s.interval
	s.rec.Reconfigs++

	load, bucketLoad := s.load, s.bucketLoad
	clear(load)
	clear(bucketLoad)
	switch s.kind {
	case LBHints:
		for b, c := range s.bucketCycles {
			bucketLoad[b] = float64(c)
			load[s.tileMap[b]] += float64(c)
		}
	case LBIdleProxy:
		// Distribute each tile's idle-task count across its buckets in
		// proportion to profiled cycles (uniform if none profiled).
		tileBuckets, tileCycles := s.tileBuckets, s.tileCycles
		for t := range tileBuckets {
			tileBuckets[t] = tileBuckets[t][:0]
		}
		clear(tileCycles)
		for b, t := range s.tileMap {
			tileBuckets[t] = append(tileBuckets[t], b)
			tileCycles[t] += s.bucketCycles[b]
		}
		for t := 0; t < s.tiles; t++ {
			idle := float64(0)
			if t < len(idlePerTile) {
				idle = float64(idlePerTile[t])
			}
			load[t] = idle
			for _, b := range tileBuckets[t] {
				if tileCycles[t] > 0 {
					bucketLoad[b] = idle * float64(s.bucketCycles[b]) / float64(tileCycles[t])
				} else if len(tileBuckets[t]) > 0 {
					bucketLoad[b] = idle / float64(len(tileBuckets[t]))
				}
			}
		}
	}

	total := 0.0
	for _, l := range load {
		total += l
	}
	if total == 0 {
		return
	}
	avg := total / float64(s.tiles)

	// Sort tiles by load ascending.
	order := s.order
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		t := order[i]
		j := i - 1
		for j >= 0 && load[order[j]] > load[t] {
			order[j+1] = order[j]
			j--
		}
		order[j+1] = t
	}

	// Remaining transferable surplus per overloaded tile and buckets owned,
	// cheapest-first so donations can be sized to the receiver's deficit.
	surplus, owned := s.surplus, s.owned
	clear(surplus)
	for t := range owned {
		owned[t] = owned[t][:0]
	}
	for b := range s.tileMap {
		owned[s.tileMap[b]] = append(owned[s.tileMap[b]], b)
	}
	for t := 0; t < s.tiles; t++ {
		if load[t] > avg {
			surplus[t] = (load[t] - avg) * s.fraction
		}
		bs := owned[t]
		for i := 1; i < len(bs); i++ {
			b := bs[i]
			j := i - 1
			for j >= 0 && bucketLoad[bs[j]] > bucketLoad[b] {
				bs[j+1] = bs[j]
				j--
			}
			bs[j+1] = b
		}
	}

	hi := s.tiles - 1 // index into order, from most loaded down
	for _, u := range order {
		if load[u] >= avg {
			break
		}
		deficit := (avg - load[u]) * s.fraction
		for deficit > 0 && hi >= 0 {
			o := order[hi]
			if load[o] <= avg || surplus[o] <= 0 {
				hi--
				continue
			}
			moved := false
			bs := owned[o]
			for i, b := range bs {
				bl := bucketLoad[b]
				if bl <= 0 || bl > deficit || bl > surplus[o] {
					continue
				}
				s.tileMap[b] = u
				deficit -= bl
				surplus[o] -= bl
				owned[o] = append(bs[:i], bs[i+1:]...)
				owned[u] = append(owned[u], b)
				moved = true
				break
			}
			if !moved {
				hi--
			}
		}
	}

	for b := range s.bucketCycles {
		s.bucketCycles[b] = 0
	}
}

// TileOfBucket exposes the current mapping (for tests and tooling).
func (s *Scheduler) TileOfBucket(b int) int { return s.tileMap[b] }

// Buckets returns the number of buckets (0 for non-LB kinds).
func (s *Scheduler) Buckets() int { return s.buckets }
