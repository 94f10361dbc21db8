package front

import (
	"bytes"
	"context"
	"io"
	"testing"

	"swarmhints/internal/bench"
	"swarmhints/internal/exp"
	"swarmhints/swarm"
	"swarmhints/swarm/api"
)

// fig2Tiny runs the paper's fig2 at tiny scale and returns its grid's
// configurations, in canonical order, with each point's statistics.
func fig2Tiny(t *testing.T) ([]Config, map[string]*swarm.Stats) {
	t.Helper()
	opt := exp.DefaultOptions(bench.Tiny)
	r := exp.NewRunner(opt)
	ctx := context.Background()
	if err := exp.Fig2(ctx, r, io.Discard); err != nil {
		t.Fatal(err)
	}
	points := exp.DedupSorted(exp.Grid([]string{"des"},
		[]swarm.SchedKind{swarm.Random, swarm.Stealing, swarm.Hints, swarm.LBHints}, opt.Cores, false))
	cfgs := make([]Config, len(points))
	stats := make(map[string]*swarm.Stats, len(points))
	for i, p := range points {
		st, err := r.Run(ctx, p.Name, p.Kind, p.Cores, p.Profile)
		if err != nil {
			t.Fatal(err)
		}
		cfgs[i] = Config{Scale: opt.Scale, Seed: opt.Seed, Point: p}
		stats[p.Key()] = st
	}
	return cfgs, stats
}

// exportJSON is the parent encoding of a set of points: exp.ExportSet plus
// WriteJSON.
func exportJSON(t *testing.T, cfgs []Config, stats map[string]*swarm.Stats) []byte {
	t.Helper()
	points := make([]exp.Point, len(cfgs))
	for i, c := range cfgs {
		points[i] = c.Point
	}
	var buf bytes.Buffer
	rs := exp.ExportSet(points, cfgs[0].Scale, cfgs[0].Seed, func(p exp.Point) *swarm.Stats { return stats[p.Key()] })
	if err := rs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBodyMatchesExportSet is the frame's byte-identity contract, for every
// point of the tiny-scale fig2 grid: Body writes exactly the single-record
// export, the NDJSON line cut from it is exactly api.EncodeRecord's, the
// decoded snapshot re-encodes to it, and bodies spliced into a buffered
// sweep are exactly WriteJSON of the whole set.
func TestBodyMatchesExportSet(t *testing.T) {
	cfgs, stats := fig2Tiny(t)
	if len(cfgs) != 16 {
		t.Fatalf("fig2 tiny grid has %d points, want 16", len(cfgs))
	}
	bodies := make([][]byte, len(cfgs))
	for i, cfg := range cfgs {
		st := stats[cfg.Point.Key()]
		body, err := Body(cfg, st.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if want := exportJSON(t, cfgs[i:i+1], stats); !bytes.Equal(body, want) {
			t.Fatalf("%s: body differs from ExportSet+WriteJSON:\n%s\nwant:\n%s", cfg.Key(), body, want)
		}
		if err := CheckRun(cfg, body); err != nil {
			t.Errorf("%s: canonical body rejected: %v", cfg.Key(), err)
		}
		line, err := recordLine(cfg, body)
		if err != nil {
			t.Fatal(err)
		}
		rs := exp.ExportSet([]exp.Point{cfg.Point}, cfg.Scale, cfg.Seed, func(exp.Point) *swarm.Stats { return st })
		want, err := api.EncodeRecord(rs.Records[0])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(line, want) {
			t.Errorf("%s: NDJSON line differs from api.EncodeRecord:\n%s\nwant:\n%s", cfg.Key(), line, want)
		}
		sn, err := DecodeBody(cfg, body)
		if err != nil {
			t.Fatal(err)
		}
		if again, err := Body(cfg, sn); err != nil || !bytes.Equal(again, body) {
			t.Errorf("%s: decoded snapshot re-encodes differently (err %v)", cfg.Key(), err)
		}
		bodies[i] = body
	}
	set, err := joinBodies(cfgs, bodies)
	if err != nil {
		t.Fatal(err)
	}
	if want := exportJSON(t, cfgs, stats); !bytes.Equal(set, want) {
		t.Errorf("spliced sweep differs from WriteJSON of the set:\n%s\nwant:\n%s", set, want)
	}
}

// TestMergedBodyIsV2: a merged multi-seed record's body carries the v2
// stamp exactly as ExportSet does, and a set holding one is stamped v2.
func TestMergedBodyIsV2(t *testing.T) {
	p := exp.Point{Name: "des", Kind: swarm.Hints, Cores: 4}
	var per []*swarm.Stats
	for _, seed := range exp.ReplicaSeeds(7, 2) {
		st, err := exp.RunPoint(p, bench.Tiny, seed, false)
		if err != nil {
			t.Fatal(err)
		}
		per = append(per, st)
	}
	merged, err := swarm.MergeStats(per)
	if err != nil {
		t.Fatal(err)
	}
	plain := exp.Point{Name: "des", Kind: swarm.Random, Cores: 1}
	single, err := exp.RunPoint(plain, bench.Tiny, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{ // canonical order: Random sorts before Hints
		{Scale: bench.Tiny, Seed: 7, Point: plain},
		{Scale: bench.Tiny, Seed: 7, Point: p},
	}
	stats := map[string]*swarm.Stats{plain.Key(): single, p.Key(): merged}
	bodies := make([][]byte, len(cfgs))
	for i, cfg := range cfgs {
		if bodies[i], err = Body(cfg, stats[cfg.Point.Key()].Snapshot()); err != nil {
			t.Fatal(err)
		}
		if want := exportJSON(t, cfgs[i:i+1], stats); !bytes.Equal(bodies[i], want) {
			t.Errorf("%s: body differs from ExportSet+WriteJSON", cfg.Key())
		}
	}
	if err := CheckRun(cfgs[1], bodies[1]); err == nil {
		t.Error("a v2 body passed the single-seed check")
	}
	set, err := joinBodies(cfgs, bodies)
	if err != nil {
		t.Fatal(err)
	}
	if want := exportJSON(t, cfgs, stats); !bytes.Equal(set, want) {
		t.Errorf("spliced mixed set differs from WriteJSON:\n%s\nwant:\n%s", set, want)
	}
}

// TestCheckRunRejectsMalformed: every way a 200 body can fail to be the
// requested point's canonical record is caught before it is relayed.
func TestCheckRunRejectsMalformed(t *testing.T) {
	cfg := Config{Scale: bench.Tiny, Seed: 7, Point: exp.Point{Name: "des", Kind: swarm.Random, Cores: 1}}
	other := cfg
	other.Point.Cores = 4
	st, err := exp.RunPoint(cfg.Point, cfg.Scale, cfg.Seed, false)
	if err != nil {
		t.Fatal(err)
	}
	good, err := Body(cfg, st.Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckRun(cfg, good); err != nil {
		t.Fatalf("canonical body rejected: %v", err)
	}
	f := frame(cfg, "swarmhints.metrics.v1")
	stats := good[len(f.prefix) : len(good)-len(f.suffix)]
	cut := append(append(append([]byte{}, f.prefix...), stats[:len(stats)/2]...), f.suffix...)
	twice := append(append(append(append([]byte{}, f.prefix...), stats...), stats...), f.suffix...)
	for name, body := range map[string][]byte{
		"mislabeled": bytes.Replace(good, []byte(`"cores": "1"`), []byte(`"cores": "4"`), 1),
		"v2 stamp":   bytes.Replace(good, []byte("metrics.v1"), []byte("metrics.v2"), 1),
		"truncated":  cut,
		"two values": twice,
		"trailing":   append(append([]byte{}, good...), "x"...),
		"cut short":  good[:len(good)-1],
		"empty":      nil,
	} {
		if err := CheckRun(cfg, body); err == nil {
			t.Errorf("%s body passed the check", name)
		}
	}
	if err := CheckRun(other, good); err == nil {
		t.Error("a record passed the check for another point")
	}
}
