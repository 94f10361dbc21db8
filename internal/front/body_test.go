package front

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"sync"
	"testing"

	"swarmhints/internal/bench"
	"swarmhints/internal/exp"
	"swarmhints/internal/metrics"
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

// oracleFrame is the body frame derived the slow way, for one point at a
// time: the set encoder run over the point's labels map with null stats,
// cut around the null. frame must agree with it byte for byte.
type oracleFrame struct {
	prefix, suffix []byte
	head, tail     int
	sep, indent    string
}

func deriveOracleFrame(t *testing.T, cfg Config, schema string) oracleFrame {
	t.Helper()
	rs := metrics.ResultSet{Schema: schema, Fields: exp.ExportFields, Records: []metrics.Record{{
		Labels: exp.PointLabels(cfg.Point, cfg.Scale, cfg.Seed),
	}}}
	b, err := json.MarshalIndent(rs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b = append(b, '\n')
	const open, recordClose, setClose = `"records": [` + "\n    ", "\n    }", "\n  ]\n}\n"
	const end = "null" + recordClose + setClose
	head := bytes.Index(b, []byte(open))
	if !bytes.HasSuffix(b, []byte(end)) || head < 0 {
		t.Fatalf("unexpected result-set layout:\n%s", b)
	}
	prefix := b[:len(b)-len(end)]
	line := prefix[bytes.LastIndexByte(prefix, '\n')+1:]
	return oracleFrame{
		prefix: prefix,
		suffix: b[len(prefix)+len("null"):],
		head:   head + len(open),
		tail:   len(setClose),
		sep:    "," + open[len(`"records": [`):],
		indent: string(line[:len(line)-len(bytes.TrimLeft(line, " "))]),
	}
}

// TestFrameMatchesEncoder: the frame written from the derived layout is
// byte-identical to the set encoder's, for every bench, scheduler kind,
// core count, profile flag, scale, seed extreme and schema.
func TestFrameMatchesEncoder(t *testing.T) {
	for _, name := range bench.AllNames() {
		for kind := swarm.Random; kind <= swarm.HintsNoSerial; kind++ {
			for _, cores := range []int{1, 4, 16, 64, 256} {
				for _, profile := range []bool{false, true} {
					for _, scale := range []bench.Scale{bench.Tiny, bench.Small, bench.Full} {
						for _, seed := range []int64{0, 7, -1, math.MaxInt64, math.MinInt64} {
							for _, schema := range []string{metrics.SchemaVersion, metrics.SchemaVersionV2} {
								cfg := Config{Scale: scale, Seed: seed, Point: exp.Point{Name: name, Kind: kind, Cores: cores, Profile: profile}}
								want := deriveOracleFrame(t, cfg, schema)
								f := frame(cfg, schema)
								if f.schema != schema || !bytes.Equal(f.prefix, want.prefix) || !bytes.Equal(f.suffix, want.suffix) ||
									len(f.set) != want.head || f.tail != want.tail || f.sep != want.sep || f.indent != want.indent {
									t.Fatalf("%s under %s: frame differs from the encoder's:\n%q\nwant:\n%q", cfg.Key(), schema, f.prefix, want.prefix)
								}
							}
						}
					}
				}
			}
		}
	}
}

// warmBody is the 16-core small-scale des/hints record the front
// micro-benchmarks check and compact, simulated once per process.
var warmBody = sync.OnceValues(func() (Config, []byte) {
	cfg := Config{Scale: bench.Small, Seed: 7, Point: exp.Point{Name: "des", Kind: swarm.Hints, Cores: 16}}
	st, err := exp.RunPoint(cfg.Point, cfg.Scale, cfg.Seed, false)
	if err != nil {
		panic(err)
	}
	body, err := Body(cfg, st.Snapshot())
	if err != nil {
		panic(err)
	}
	return cfg, body
})

// BenchmarkCheckRun measures the gateway's check of one replica body.
func BenchmarkCheckRun(b *testing.B) {
	cfg, body := warmBody()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := CheckRun(cfg, body); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecordLine measures cutting one body's NDJSON sweep line.
func BenchmarkRecordLine(b *testing.B) {
	cfg, body := warmBody()
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := recordLine(cfg, body); err != nil {
			b.Fatal(err)
		}
	}
}
