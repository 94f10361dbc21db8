package metrics

import (
	"fmt"
	"math"
)

// SeedStat is the dispersion of one metric across the per-seed runs of a
// merged snapshot: mean, extremes, and population standard deviation.
type SeedStat struct {
	Mean   float64 `json:"mean"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Stddev float64 `json:"stddev"`
}

// SeedSummary is the cross-seed error-bar block attached to a merged
// snapshot: per-metric dispersion over the individual seed replicas that
// were summed into the aggregate. The aggregate's own fields stay exact
// counter sums (and exactly recomputed derived metrics); only this block
// carries statistics, so nothing in the merged record is a lossy average.
type SeedSummary struct {
	Seeds int `json:"seeds"`

	Cycles          SeedStat `json:"cycles"`
	CommittedTasks  SeedStat `json:"committedTasks"`
	AbortedAttempts SeedStat `json:"abortedAttempts"`
	SpilledTasks    SeedStat `json:"spilledTasks"`
	TrafficTotal    SeedStat `json:"trafficTotal"`
	WastedFraction  SeedStat `json:"wastedFraction"`
	LoadImbalance   SeedStat `json:"loadImbalance"`
}

// seedStat computes one metric's dispersion. Values arrive in fixed seed
// order, so the float accumulation order — and therefore the encoded bytes
// — is identical no matter where or when the seeds ran.
func seedStat(vals []float64) SeedStat {
	st := SeedStat{Min: math.Inf(1), Max: math.Inf(-1)}
	if len(vals) == 0 {
		return SeedStat{}
	}
	var sum float64
	for _, v := range vals {
		sum += v
		if v < st.Min {
			st.Min = v
		}
		if v > st.Max {
			st.Max = v
		}
	}
	st.Mean = sum / float64(len(vals))
	var sq float64
	for _, v := range vals {
		d := v - st.Mean
		sq += d * d
	}
	st.Stddev = math.Sqrt(sq / float64(len(vals)))
	return st
}

// SummarizeSeeds builds the cross-seed dispersion block from the per-seed
// snapshots, in the order given (callers pass canonical seed order).
func SummarizeSeeds(snaps []*Snapshot) *SeedSummary {
	sm := &SeedSummary{Seeds: len(snaps)}
	col := func(f func(*Snapshot) float64) SeedStat {
		vals := make([]float64, len(snaps))
		for i, s := range snaps {
			vals[i] = f(s)
		}
		return seedStat(vals)
	}
	sm.Cycles = col(func(s *Snapshot) float64 { return float64(s.Cycles) })
	sm.CommittedTasks = col(func(s *Snapshot) float64 { return float64(s.CommittedTasks) })
	sm.AbortedAttempts = col(func(s *Snapshot) float64 { return float64(s.AbortedAttempts) })
	sm.SpilledTasks = col(func(s *Snapshot) float64 { return float64(s.SpilledTasks) })
	sm.TrafficTotal = col(func(s *Snapshot) float64 { return float64(s.TrafficTotal) })
	sm.WastedFraction = col(func(s *Snapshot) float64 { return s.WastedFraction })
	sm.LoadImbalance = col(func(s *Snapshot) float64 { return s.LoadImbalance })
	return sm
}

// Merge accumulates o into s: the chip-level counters and the aligned
// per-tile blocks are summed, and the aggregates and derived metrics are
// refilled from the merged tiles (never averaged), so a merged snapshot
// obeys exactly the same derivations as a single run's. Cycles becomes
// total simulated cycles across the merged runs. Both snapshots
// must describe the same machine shape (cores, tile count). Merge clears
// SeedSummary; MergeSnapshots attaches the summary over the full seed set.
//
// Merged Classification fractions are the access-count-weighted combination
// of the inputs (dropped if either side lacks a profile). All float work is
// deterministic for a fixed merge order, which is why every caller merges
// per-seed snapshots left-to-right in canonical seed order.
func (s *Snapshot) Merge(o *Snapshot) error {
	if s.Cores != o.Cores {
		return fmt.Errorf("metrics: merge cores mismatch: %d vs %d", s.Cores, o.Cores)
	}
	if s.NumTiles != o.NumTiles || len(s.PerTile) != len(o.PerTile) {
		return fmt.Errorf("metrics: merge tile mismatch: %d/%d vs %d/%d",
			s.NumTiles, len(s.PerTile), o.NumTiles, len(o.PerTile))
	}

	s.Cycles += o.Cycles
	s.GVTRounds += o.GVTRounds
	s.Reconfigs += o.Reconfigs
	for i := range s.PerTile {
		s.PerTile[i].Add(&o.PerTile[i])
	}

	if s.Classification != nil && o.Classification != nil {
		a, b := s.Classification, o.Classification
		wa, wb := float64(a.TotalAccesses), float64(b.TotalAccesses)
		merged := &AccessClassification{TotalAccesses: a.TotalAccesses + b.TotalAccesses}
		if tot := wa + wb; tot > 0 {
			mix := func(x, y float64) float64 { return (x*wa + y*wb) / tot }
			merged.MultiHintRO = mix(a.MultiHintRO, b.MultiHintRO)
			merged.SingleHintRO = mix(a.SingleHintRO, b.SingleHintRO)
			merged.MultiHintRW = mix(a.MultiHintRW, b.MultiHintRW)
			merged.SingleHintRW = mix(a.SingleHintRW, b.SingleHintRW)
			merged.Arguments = mix(a.Arguments, b.Arguments)
		}
		s.Classification = merged
	} else {
		s.Classification = nil
	}

	s.SeedSummary = nil
	s.derive()
	return nil
}

// MergeSnapshots folds the per-seed snapshots — given in canonical seed
// order — into one aggregate left-to-right and attaches the SeedSummary
// over the full set. The inputs are not modified. Because the fold order
// is fixed by the caller's seed order (never by worker or completion
// order), the merged snapshot is byte-identical however the per-seed runs
// were scheduled.
func MergeSnapshots(snaps []*Snapshot) (*Snapshot, error) {
	if len(snaps) == 0 {
		return nil, fmt.Errorf("metrics: merge of zero snapshots")
	}
	first := snaps[0]
	merged := NewSnapshot(first.Chip(), first.PerTile, first.Classification, nil)
	for _, o := range snaps[1:] {
		if o == nil {
			return nil, fmt.Errorf("metrics: merge of nil snapshot")
		}
		if err := merged.Merge(o); err != nil {
			return nil, err
		}
	}
	merged.SeedSummary = SummarizeSeeds(snaps)
	return merged, nil
}
