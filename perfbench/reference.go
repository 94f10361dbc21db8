package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"runtime/pprof"
	"time"

	"swarmhints/internal/bench"
	"swarmhints/internal/exp"
	"swarmhints/internal/metrics"
	"swarmhints/internal/runner"
	"swarmhints/swarm"
	"swarmhints/swarm/api"
)

// The grid every workload is built on: bench.Names() × {random, hints,
// lbhints} × {1, 16, 64} cores, 81 points.
var (
	gridScheds = []string{"random", "hints", "lbhints"}
	gridKinds  = []swarm.SchedKind{swarm.Random, swarm.Hints, swarm.LBHints}
	gridCores  = []int{1, 16, 64}
)

// grid holds the reference results of a point set under one (scale, seed)
// harness, computed in-process with the same calls the service makes.
type grid struct {
	scale  bench.Scale
	seed   int64
	points []exp.Point // canonical order (exp.DedupSorted)
	stats  map[string]*swarm.Stats
}

func newGrid(scale bench.Scale, seed int64) *grid {
	return &grid{
		scale:  scale,
		seed:   seed,
		points: exp.DedupSorted(exp.Grid(bench.Names(), gridKinds, gridCores, false)),
		stats:  map[string]*swarm.Stats{},
	}
}

// computeEach runs n simulations through fn on parallel goroutines and
// returns their results in index order.
func computeEach(ctx context.Context, parallel, n int, fn func(i int) (*swarm.Stats, error)) ([]*swarm.Stats, error) {
	jobs := make([]runner.Job, n)
	for i := range jobs {
		i := i
		jobs[i] = runner.Job{Name: fmt.Sprint(i), Run: func(int64) (*swarm.Stats, error) { return fn(i) }}
	}
	results := runner.Sweep(ctx, jobs, runner.Options{Parallel: parallel})
	if err := runner.FirstErr(results); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	out := make([]*swarm.Stats, n)
	for i, r := range results {
		out[i] = detach(r.Stats)
	}
	return out, nil
}

// detach copies a run's statistics out of the engine that produced them:
// the *Stats a run returns points into its engine and would keep the whole
// engine alive, inflating the process's memory for as long as the
// reference is held.
func detach(st *swarm.Stats) *swarm.Stats {
	c := *st
	return &c
}

// compute fills the grid's results through exp.RunPoint.
func (g *grid) compute(ctx context.Context, parallel int) error {
	st, err := computeEach(ctx, parallel, len(g.points), func(i int) (*swarm.Stats, error) {
		return exp.RunPoint(g.points[i], g.scale, g.seed, true)
	})
	if err != nil {
		return err
	}
	for i, p := range g.points {
		g.stats[p.Key()] = st[i]
	}
	return nil
}

// streamDigests is the SHA-256 of each line of the grid's NDJSON sweep.
func (g *grid) streamDigests() ([][sha256.Size]byte, error) {
	_, lines, err := g.sweepRef(g.points, "ndjson")
	if err != nil {
		return nil, err
	}
	out := make([][sha256.Size]byte, len(lines))
	for i, l := range lines {
		out[i] = sha256.Sum256(l)
	}
	return out, nil
}

// runRef is the /v1/run response for one point: a single-record export.
func runRef(scale bench.Scale, seed int64, p exp.Point, st *swarm.Stats) ([]byte, error) {
	var b bytes.Buffer
	rs := exp.ExportSet([]exp.Point{p}, scale, seed, func(exp.Point) *swarm.Stats { return st })
	err := rs.WriteJSON(&b)
	return b.Bytes(), err
}

// sweepRef is the /v1/sweep response for points: the buffered JSON export,
// or the NDJSON stream split into lines (header, records, trailer).
func (g *grid) sweepRef(points []exp.Point, format string) ([]byte, [][]byte, error) {
	rs := exp.ExportSet(points, g.scale, g.seed, func(p exp.Point) *swarm.Stats { return g.stats[p.Key()] })
	if format == "json" {
		var b bytes.Buffer
		err := rs.WriteJSON(&b)
		return b.Bytes(), nil, err
	}
	head, err := api.EncodeHeader(api.StreamHeader{Schema: rs.Schema, Fields: rs.Fields, Points: len(rs.Records)})
	if err != nil {
		return nil, nil, err
	}
	lines := [][]byte{head}
	for _, rec := range rs.Records {
		line, err := api.EncodeRecord(rec)
		if err != nil {
			return nil, nil, err
		}
		lines = append(lines, line)
	}
	trailer, err := api.EncodeTrailer(len(rs.Records))
	if err != nil {
		return nil, nil, err
	}
	lines = append(lines, trailer)
	return bytes.Join(lines, nil), lines, nil
}

// records is the grid's export as wire records, in canonical order.
func (g *grid) records() []metrics.Record {
	return exp.ExportSet(g.points, g.scale, g.seed, func(p exp.Point) *swarm.Stats { return g.stats[p.Key()] }).Records
}

// replay re-executes the grid serially through the public calls a cold
// point costs — bench.Build, Program.Run, Validate — recording a span per
// call and a CPU profile of the whole replay. A replayed result must equal
// the reference when one was computed, and becomes the reference otherwise.
func (g *grid) replay(spans *spanLog) (profile []byte, err error) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	defer func() {
		pprof.StopCPUProfile()
		profile = prof.Bytes()
	}()
	for _, p := range g.points {
		start := time.Now()
		root := spans.add(span{name: "replay.point", parent: -1, start: start})
		inst, err := bench.Build(p.Name, g.scale, g.seed)
		built := time.Now()
		spans.add(span{name: "replay.build", parent: root, start: start, end: built})
		if err != nil {
			return nil, err
		}
		cfg := swarm.ScaledConfig().WithCores(p.Cores)
		cfg.Scheduler = p.Kind
		cfg.Profile = p.Profile
		cfg.MaxCycles = exp.MaxPointCycles
		st, err := inst.Prog.Run(cfg)
		ran := time.Now()
		spans.add(span{name: "replay.run", parent: root, start: built, end: ran})
		if err != nil {
			return nil, fmt.Errorf("replay %s: %w", p.Key(), err)
		}
		err = inst.Validate()
		end := time.Now()
		spans.add(span{name: "replay.validate", parent: root, start: ran, end: end})
		spans.setEnd(root, end)
		if err != nil {
			return nil, fmt.Errorf("replay %s failed validation: %w", p.Key(), err)
		}
		if ref, ok := g.stats[p.Key()]; ok {
			a, _ := json.Marshal(st.Snapshot())
			b, _ := json.Marshal(ref.Snapshot())
			if !bytes.Equal(a, b) {
				return nil, fmt.Errorf("replay %s differs from exp.RunPoint", p.Key())
			}
		} else {
			g.stats[p.Key()] = detach(st)
		}
	}
	return nil, nil
}

// simTotals sums the simulated (deterministic) counters over the grid.
func (g *grid) simTotals() map[string]float64 {
	var committed, aborted, cycles, flits, commitCycles, coreCycles uint64
	for _, p := range g.points {
		st := g.stats[p.Key()]
		committed += st.CommittedTasks
		aborted += st.AbortedAttempts
		cycles += st.Cycles
		flits += st.TotalTraffic()
		commitCycles += st.Breakdown.Commit
		coreCycles += st.Breakdown.CoreTotal()
	}
	m := map[string]float64{
		"sim.committed_tasks":  float64(committed),
		"sim.aborted_attempts": float64(aborted),
		"sim.cycles":           float64(cycles),
		"sim.noc_flits":        float64(flits),
		"sim.useful_share":     0,
	}
	if coreCycles > 0 {
		m["sim.useful_share"] = float64(commitCycles) / float64(coreCycles)
	}
	return m
}
