package metrics

import (
	"math/rand"
	"reflect"
	"testing"
)

// trafficAggregates names the Snapshot aggregate of each traffic class.
var trafficAggregates = [NumTrafficClasses]string{"TrafficMem", "TrafficAbort", "TrafficTask", "TrafficGVT"}

// randTiles returns n per-tile blocks with every counter set at random,
// small enough that sums over a few snapshots cannot overflow.
func randTiles(t *testing.T, rng *rand.Rand, n int) []TileCounters {
	tiles := make([]TileCounters, n)
	for i := range tiles {
		v := reflect.ValueOf(&tiles[i]).Elem()
		for f := 0; f < v.NumField(); f++ {
			switch fv := v.Field(f); fv.Kind() {
			case reflect.Uint64:
				fv.SetUint(uint64(rng.Int63n(1 << 40)))
			case reflect.Array:
				for c := 0; c < fv.Len(); c++ {
					fv.Index(c).SetUint(uint64(rng.Int63n(1 << 40)))
				}
			default:
				t.Fatalf("TileCounters.%s: unhandled kind %v", v.Type().Field(f).Name, fv.Kind())
			}
		}
	}
	return tiles
}

// addTiles adds src into dst field by field, by reflection, so the sums it
// gives do not depend on TileCounters.Add.
func addTiles(dst, src *TileCounters) {
	d, s := reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem()
	for f := 0; f < d.NumField(); f++ {
		if df := d.Field(f); df.Kind() == reflect.Array {
			for c := 0; c < df.Len(); c++ {
				df.Index(c).SetUint(df.Index(c).Uint() + s.Field(f).Index(c).Uint())
			}
		} else {
			df.SetUint(df.Uint() + s.Field(f).Uint())
		}
	}
}

// checkAggregates asserts that every aggregate of sn is the sum of its
// per-tile blocks: each TileCounters field matches the Snapshot field of
// the same name, and Traffic[c] matches trafficAggregates[c]. A counter
// added to TileCounters but not summed by the constructor fails here.
func checkAggregates(t *testing.T, sn *Snapshot) {
	t.Helper()
	var sum TileCounters
	for i := range sn.PerTile {
		addTiles(&sum, &sn.PerTile[i])
	}
	sv, av := reflect.ValueOf(&sum).Elem(), reflect.ValueOf(sn).Elem()
	for f := 0; f < sv.NumField(); f++ {
		name := sv.Type().Field(f).Name
		if name == "Traffic" {
			for c, agg := range trafficAggregates {
				if got, want := av.FieldByName(agg).Uint(), sv.Field(f).Index(c).Uint(); got != want {
					t.Errorf("%s = %d, want tile sum %d", agg, got, want)
				}
			}
			continue
		}
		fa := av.FieldByName(name)
		if !fa.IsValid() {
			t.Errorf("TileCounters.%s has no Snapshot aggregate", name)
			continue
		}
		if got, want := fa.Uint(), sv.Field(f).Uint(); got != want {
			t.Errorf("%s = %d, want tile sum %d", name, got, want)
		}
	}
	if want := TotalTraffic(sum.Traffic); sn.TrafficTotal != want {
		t.Errorf("TrafficTotal = %d, want %d", sn.TrafficTotal, want)
	}
	if sn.NumTiles != len(sn.PerTile) {
		t.Errorf("NumTiles = %d, want %d", sn.NumTiles, len(sn.PerTile))
	}
	fr := trafficFractions(sum.Traffic)
	if sn.WastedFraction != WastedFraction(sum.AbortCycles, sum.CommitCycles) ||
		sn.LoadImbalance != LoadImbalance(sn.PerTile) ||
		[NumTrafficClasses]float64{sn.TrafficFracMem, sn.TrafficFracAbort, sn.TrafficFracTask, sn.TrafficFracGVT} != fr {
		t.Errorf("derived metrics not computed from the tile sums: %+v", sn)
	}
}

// TestSnapshotAggregatesAreTileSums pins the constructor's invariant on
// fixed-seed random per-tile blocks: every aggregate is the tile sum, and
// merging k snapshots equals the constructor over the element-wise summed
// tiles and summed chip-level values.
func TestSnapshotAggregatesAreTileSums(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, tiles := range []int{0, 1, 4, 16} {
		for k := 1; k <= 4; k++ {
			snaps := make([]*Snapshot, k)
			var chip Chip
			sum := make([]TileCounters, tiles)
			for i := range snaps {
				c := Chip{
					Cycles: uint64(rng.Int63n(1 << 40)), Cores: 4 * tiles,
					GVTRounds: uint64(rng.Int63n(1 << 20)), Reconfigs: uint64(rng.Int63n(1 << 10)),
				}
				snaps[i] = NewSnapshot(c, randTiles(t, rng, tiles), nil, nil)
				checkAggregates(t, snaps[i])
				chip.Cycles += c.Cycles
				chip.Cores = c.Cores
				chip.GVTRounds += c.GVTRounds
				chip.Reconfigs += c.Reconfigs
				for j := range sum {
					addTiles(&sum[j], &snaps[i].PerTile[j])
				}
			}
			m, err := MergeSnapshots(snaps)
			if err != nil {
				t.Fatal(err)
			}
			checkAggregates(t, m)
			m.SeedSummary = nil
			if want := NewSnapshot(chip, sum, nil, nil); !reflect.DeepEqual(m, want) {
				t.Errorf("%d tiles, %d snapshots: merge = %+v, want constructor over sums %+v", tiles, k, m, want)
			}
		}
	}
}
