package metrics

// Sum returns the element-wise sum of the per-tile blocks: the chip-wide
// aggregate every run statistic is read from.
func Sum(tiles []TileCounters) TileCounters {
	var agg TileCounters
	for i := range tiles {
		agg.Add(&tiles[i])
	}
	return agg
}

// TotalTraffic sums flits over all traffic classes.
func TotalTraffic(t [NumTrafficClasses]uint64) uint64 {
	var sum uint64
	for _, f := range t {
		sum += f
	}
	return sum
}

// trafficFractions returns each class's share of the total flits (all 0
// when there is no traffic).
func trafficFractions(t [NumTrafficClasses]uint64) [NumTrafficClasses]float64 {
	var fr [NumTrafficClasses]float64
	if total := TotalTraffic(t); total > 0 {
		for c, f := range t {
			fr[c] = float64(f) / float64(total)
		}
	}
	return fr
}

// WastedFraction returns aborted / (aborted + committed) cycles — the
// paper's "wasted work" metric (0 when neither ran).
func WastedFraction(abort, commit uint64) float64 {
	if abort+commit == 0 {
		return 0
	}
	return float64(abort) / float64(abort+commit)
}

// LoadImbalance returns max/mean committed cycles per tile — the paper's
// load-imbalance story (Sec. VI): 1.0 is perfect balance, T (the tile
// count) is all work on one tile. It is 0 when nothing committed.
func LoadImbalance(tiles []TileCounters) float64 {
	var max, sum uint64
	for i := range tiles {
		c := tiles[i].CommitCycles
		sum += c
		if c > max {
			max = c
		}
	}
	if sum == 0 {
		return 0
	}
	return float64(max) / (float64(sum) / float64(len(tiles)))
}

// Chip holds a run's chip-level values: the ones no tile is charged with.
type Chip struct {
	Cycles    uint64
	Cores     int
	GVTRounds uint64
	Reconfigs uint64
}

// Chip returns the snapshot's chip-level values.
func (s *Snapshot) Chip() Chip {
	return Chip{Cycles: s.Cycles, Cores: s.Cores, GVTRounds: s.GVTRounds, Reconfigs: s.Reconfigs}
}

// NewSnapshot builds a run's snapshot from its chip-level values, per-tile
// blocks, access classification (nil when not profiled) and seed summary
// (nil unless merged). The tiles and the classification are copied; every
// aggregate is the sum of the tiles, and the derived metrics are computed
// from those sums.
func NewSnapshot(chip Chip, tiles []TileCounters, cl *AccessClassification, ss *SeedSummary) *Snapshot {
	s := &Snapshot{
		Cycles: chip.Cycles, Cores: chip.Cores, GVTRounds: chip.GVTRounds, Reconfigs: chip.Reconfigs,
		SeedSummary: ss,
		PerTile:     make([]TileCounters, len(tiles)),
	}
	copy(s.PerTile, tiles)
	if cl != nil {
		c := *cl
		s.Classification = &c
	}
	s.derive()
	return s
}

// derive fills the tile count and every aggregate field with the sums of
// the per-tile blocks, then the derived metrics from those sums. It is the
// only place a snapshot's aggregates and derived metrics are computed, so
// a run's snapshot and a merge of snapshots obey the same derivations.
func (s *Snapshot) derive() {
	a := Sum(s.PerTile)
	s.NumTiles = len(s.PerTile)

	s.CommittedTasks = a.CommittedTasks
	s.AbortedAttempts = a.AbortedAttempts
	s.SquashedTasks = a.SquashedTasks
	s.SpilledTasks = a.SpilledTasks
	s.StolenTasks = a.StolenTasks
	s.EnqueuedTasks = a.EnqueuedTasks

	s.CommitCycles = a.CommitCycles
	s.AbortCycles = a.AbortCycles
	s.SpillCycles = a.SpillCycles
	s.StallCycles = a.StallCycles
	s.EmptyCycles = a.EmptyCycles

	s.TrafficMem, s.TrafficAbort, s.TrafficTask, s.TrafficGVT = a.Traffic[0], a.Traffic[1], a.Traffic[2], a.Traffic[3]
	s.TrafficTotal = TotalTraffic(a.Traffic)

	s.L1Hits = a.L1Hits
	s.L2Hits = a.L2Hits
	s.L3Hits = a.L3Hits
	s.MemAccesses = a.MemAccesses
	s.RemoteForwards = a.RemoteForwards
	s.Invalidations = a.Invalidations
	s.Writebacks = a.Writebacks
	s.Comparisons = a.Comparisons

	s.WastedFraction = WastedFraction(a.AbortCycles, a.CommitCycles)
	s.LoadImbalance = LoadImbalance(s.PerTile)
	fr := trafficFractions(a.Traffic)
	s.TrafficFracMem, s.TrafficFracAbort, s.TrafficFracTask, s.TrafficFracGVT = fr[0], fr[1], fr[2], fr[3]
}
