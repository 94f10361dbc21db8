// Package metrics is the unified statistics-collection subsystem: a typed,
// allocation-free Recorder holding one counter block per tile, which the
// engine and the memory-system models (internal/sim, internal/cache,
// internal/noc, internal/conflict, internal/sched) publish into directly,
// plus the stable machine-readable result schema (Snapshot, Record,
// ResultSet) and its JSON/CSV encoders.
//
// The Recorder is a flat []TileCounters allocated once at engine
// construction; every publish is a single indexed field add, so the
// collection layer costs nothing on the simulation hot path and keeps the
// engine's per-task allocation count unchanged. Per-tile counters are the
// ground truth: chip-wide aggregates are always computed by summation, which
// makes "per-tile sums equal chip totals" an invariant by construction.
package metrics

// NumTrafficClasses is the number of NoC message classes. The index order
// mirrors internal/noc's declaration order: mem, abort, task, GVT (the
// Fig. 5b legend order).
const NumTrafficClasses = 4

// TrafficClassNames names the traffic classes in index order.
var TrafficClassNames = [NumTrafficClasses]string{"mem", "abort", "task", "gvt"}

// TileCounters is the complete per-tile counter block. All fields are plain
// integers published by direct field updates; JSON tags define the stable
// machine-readable schema for the per-tile section of a Snapshot.
type TileCounters struct {
	// Cycle breakdown. The four core categories (commit, abort, stall,
	// empty) partition this tile's core-cycles exactly; spill cycles are
	// coalescer work charged on top (see CycleBreakdown.CoreTotal in
	// internal/sim).
	CommitCycles uint64 `json:"commitCycles"`
	AbortCycles  uint64 `json:"abortCycles"`
	SpillCycles  uint64 `json:"spillCycles"`
	StallCycles  uint64 `json:"stallCycles"`
	EmptyCycles  uint64 `json:"emptyCycles"`

	// Task lifecycle events on this tile.
	CommittedTasks  uint64 `json:"committedTasks"`
	AbortedAttempts uint64 `json:"abortedAttempts"`
	SquashedTasks   uint64 `json:"squashedTasks"`
	SpilledTasks    uint64 `json:"spilledTasks"`
	StolenTasks     uint64 `json:"stolenTasks"`
	EnqueuedTasks   uint64 `json:"enqueuedTasks"`

	// Traffic is NoC flits injected by this tile, by message class
	// (mem, abort, task, gvt).
	Traffic [NumTrafficClasses]uint64 `json:"traffic"`

	// Cache-hierarchy events. Hits are attributed to the accessing tile;
	// L3 hits and memory accesses to the home bank's tile; invalidations
	// and writebacks to the tile whose cache performs them.
	L1Hits         uint64 `json:"l1Hits"`
	L2Hits         uint64 `json:"l2Hits"`
	L3Hits         uint64 `json:"l3Hits"`
	MemAccesses    uint64 `json:"memAccesses"`
	RemoteForwards uint64 `json:"remoteForwards"`
	Invalidations  uint64 `json:"invalidations"`
	Writebacks     uint64 `json:"writebacks"`

	// Comparisons counts conflict-index timestamp comparisons performed on
	// behalf of this tile's accesses (Table II: 5 cycles + 1 cycle per
	// timestamp compared).
	Comparisons uint64 `json:"comparisons"`
}

// Add accumulates o into t field-by-field.
func (t *TileCounters) Add(o *TileCounters) {
	t.CommitCycles += o.CommitCycles
	t.AbortCycles += o.AbortCycles
	t.SpillCycles += o.SpillCycles
	t.StallCycles += o.StallCycles
	t.EmptyCycles += o.EmptyCycles
	t.CommittedTasks += o.CommittedTasks
	t.AbortedAttempts += o.AbortedAttempts
	t.SquashedTasks += o.SquashedTasks
	t.SpilledTasks += o.SpilledTasks
	t.StolenTasks += o.StolenTasks
	t.EnqueuedTasks += o.EnqueuedTasks
	for c := range t.Traffic {
		t.Traffic[c] += o.Traffic[c]
	}
	t.L1Hits += o.L1Hits
	t.L2Hits += o.L2Hits
	t.L3Hits += o.L3Hits
	t.MemAccesses += o.MemAccesses
	t.RemoteForwards += o.RemoteForwards
	t.Invalidations += o.Invalidations
	t.Writebacks += o.Writebacks
	t.Comparisons += o.Comparisons
}

// Recorder is the per-run collection point: one TileCounters per tile plus
// the few chip-level counters with no tile attribution. One Recorder is
// created per engine, so concurrent engines in a parallel sweep share no
// state.
type Recorder struct {
	tiles []TileCounters

	// Reconfigs counts load-balancer tile-map reconfigurations (chip-level:
	// the LB runs at the GVT arbiter, not on a tile).
	Reconfigs uint64
}

// New returns a Recorder for the given tile count (minimum 1).
func New(tiles int) *Recorder {
	if tiles < 1 {
		tiles = 1
	}
	return &Recorder{tiles: make([]TileCounters, tiles)}
}

// Tiles returns the number of tiles recorded.
func (r *Recorder) Tiles() int { return len(r.tiles) }

// Tile returns the counter block for tile i, for direct publishing.
func (r *Recorder) Tile(i int) *TileCounters { return &r.tiles[i] }

// Aggregate sums every tile's counters into one chip-wide block.
func (r *Recorder) Aggregate() TileCounters { return Sum(r.tiles) }

// Snapshot returns a copy of the per-tile counters.
func (r *Recorder) Snapshot() []TileCounters {
	out := make([]TileCounters, len(r.tiles))
	copy(out, r.tiles)
	return out
}

// ResetTraffic clears every tile's traffic counters (used between
// measurement regions by the NoC model's ResetStats).
func (r *Recorder) ResetTraffic() {
	for i := range r.tiles {
		r.tiles[i].Traffic = [NumTrafficClasses]uint64{}
	}
}
