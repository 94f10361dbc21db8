package service

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"swarmhints/internal/bench"
	"swarmhints/internal/exp"
	"swarmhints/internal/front"
	"swarmhints/internal/metrics"
	"swarmhints/internal/store"
	"swarmhints/swarm"
	"swarmhints/swarm/api"
)

// fig2SweepBody is the sweep request covering exactly the grid the fig2
// experiment executes at Tiny scale with cores {1,4}: des under all four
// schedulers. The committed golden export in internal/exp/testdata was
// generated from that grid, so it doubles as the service's differential
// oracle.
const fig2SweepBody = `{
	"benches": ["des"],
	"scheds":  ["random", "stealing", "hints", "lbhints"],
	"cores":   [1, 4],
	"scale":   "tiny",
	"format":  "%s"
}`

func fig2Golden(t *testing.T) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "exp", "testdata", "export_fig2_tiny.golden.json"))
	if err != nil {
		t.Fatalf("golden export missing: %v", err)
	}
	return b
}

// startServer boots the service on an ephemeral port.
func startServer(t *testing.T, opt Options) (*Service, *httptest.Server) {
	t.Helper()
	svc := New(opt)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(func() { ts.Close(); svc.Close() })
	return svc, ts
}

func postSweep(t *testing.T, url, format string) []byte {
	t.Helper()
	body := strings.Replace(fig2SweepBody, "%s", format, 1)
	resp, err := http.Post(url+"/v1/sweep", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, b)
	}
	return b
}

// TestSweepJSONMatchesGoldenExport is the end-to-end differential test of
// the acceptance criteria: the service's buffered JSON sweep response must
// be byte-identical to the committed CLI export for the same grid — and to
// a direct in-process exp.Runner — at more than one worker count.
func TestSweepJSONMatchesGoldenExport(t *testing.T) {
	golden := fig2Golden(t)

	// Differential leg 1: a direct runner, no service in the path.
	o := exp.DefaultOptions(bench.Tiny)
	o.Cores = []int{1, 4}
	direct := exp.NewRunner(o)
	err := direct.PrimeGrid(context.Background(), []string{"des"},
		[]swarm.SchedKind{swarm.Random, swarm.Stealing, swarm.Hints, swarm.LBHints}, []int{1, 4}, false)
	if err != nil {
		t.Fatal(err)
	}
	var directBuf bytes.Buffer
	if err := direct.Export().WriteJSON(&directBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(directBuf.Bytes(), golden) {
		t.Fatal("direct runner export no longer matches the golden file; regenerate the golden first")
	}

	// Differential leg 2: the service, at two worker counts.
	for _, workers := range []int{1, 8} {
		_, ts := startServer(t, Options{Workers: workers, Validate: true})
		got := postSweep(t, ts.URL, "json")
		if !bytes.Equal(got, golden) {
			t.Errorf("workers=%d: sweep JSON differs from the golden export (%d vs %d bytes)",
				workers, len(got), len(golden))
		}
	}
}

// TestSweepNDJSONReassemblesToGolden checks the streaming format: the
// header announces the grid, records arrive in canonical configuration
// order, the stream ends with the completion trailer, and reassembling
// the records into a ResultSet reproduces the golden export byte for byte.
func TestSweepNDJSONReassemblesToGolden(t *testing.T) {
	_, ts := startServer(t, Options{Workers: 4, Validate: true})
	raw := postSweep(t, ts.URL, "ndjson")

	dec, err := api.NewStreamDecoder(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("bad stream header: %v", err)
	}
	header := dec.Header()
	if header.Schema != metrics.SchemaVersion {
		t.Fatalf("header schema %q, want %q", header.Schema, metrics.SchemaVersion)
	}
	if header.Points != 8 {
		t.Fatalf("header announces %d points, want 8 (truncation detection)", header.Points)
	}
	rs := metrics.ResultSet{Schema: header.Schema, Fields: header.Fields}
	for {
		rec, ok, err := dec.Next()
		if err != nil {
			t.Fatalf("stream decode: %v", err)
		}
		if !ok {
			break
		}
		rs.Records = append(rs.Records, rec)
	}
	trailer := dec.Trailer()
	if trailer == nil || !trailer.Complete || trailer.Points != 8 {
		t.Fatalf("stream trailer = %+v, want complete with 8 points", trailer)
	}
	if len(rs.Records) != 8 {
		t.Fatalf("stream carried %d records, want 8", len(rs.Records))
	}

	// A truncated stream (trailer cut off) must NOT decode cleanly.
	cut := raw[:bytes.LastIndexByte(bytes.TrimRight(raw, "\n"), '\n')+1]
	tdec, err := api.NewStreamDecoder(bytes.NewReader(cut))
	if err != nil {
		t.Fatalf("bad truncated-stream header: %v", err)
	}
	for {
		_, ok, err := tdec.Next()
		if err != nil {
			if !errors.Is(err, api.ErrTruncated) {
				t.Fatalf("truncated stream error = %v, want ErrTruncated", err)
			}
			break
		}
		if !ok {
			t.Fatal("truncated stream decoded as complete")
		}
	}
	// Streamed order must be the canonical export order already.
	for i := 1; i < len(rs.Records); i++ {
		a, b := rs.Records[i-1].Labels, rs.Records[i].Labels
		if a["sched"] == b["sched"] && a["cores"] > b["cores"] {
			t.Fatalf("records %d/%d out of canonical order: %v then %v", i-1, i, a, b)
		}
	}
	var buf bytes.Buffer
	if err := rs.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), fig2Golden(t)) {
		t.Error("reassembled NDJSON stream differs from the golden export")
	}
}

// TestSweepDeterministicAcrossWorkerCounts hammers the same sweep at
// several worker counts on one shared service (so later sweeps are partly
// or fully cache-served) and requires byte-identical NDJSON every time:
// cache state must be unobservable in the bytes.
func TestSweepDeterministicAcrossWorkerCounts(t *testing.T) {
	var first []byte
	for _, workers := range []int{1, 2, 8} {
		_, ts := startServer(t, Options{Workers: workers, Validate: true})
		got := postSweep(t, ts.URL, "ndjson")
		if first == nil {
			first = got
			continue
		}
		if !bytes.Equal(got, first) {
			t.Errorf("workers=%d: NDJSON differs from workers=1", workers)
		}
	}
	// Cold vs warm on one service: the second response comes from cache.
	svc, ts := startServer(t, Options{Workers: 4, Validate: true})
	cold := postSweep(t, ts.URL, "ndjson")
	missesAfterCold := svc.Counters().Misses
	warm := postSweep(t, ts.URL, "ndjson")
	if !bytes.Equal(cold, warm) {
		t.Error("warm sweep bytes differ from cold sweep")
	}
	if got := svc.Counters().Misses; got != missesAfterCold {
		t.Errorf("warm sweep executed %d extra simulations", got-missesAfterCold)
	}
}

// promCounter extracts one un-labeled counter value from /metrics output.
func promCounter(t *testing.T, url, name string) float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	m := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(name) + ` (\S+)$`).FindSubmatch(b)
	if m == nil {
		t.Fatalf("metric %s missing from /metrics:\n%s", name, b)
	}
	v, err := strconv.ParseFloat(string(m[1]), 64)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestWarmRunServedFromCacheViaMetrics is the acceptance check "a
// warm-cache POST /v1/run answers without launching a simulation, verified
// by the hit counter in /metrics".
func TestWarmRunServedFromCacheViaMetrics(t *testing.T) {
	_, ts := startServer(t, Options{Workers: 2, Validate: true})
	post := func() (string, []byte) {
		resp, err := http.Post(ts.URL+"/v1/run", "application/json",
			strings.NewReader(`{"bench":"des","sched":"random","cores":1,"scale":"tiny"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("run status %d: %s", resp.StatusCode, b)
		}
		return resp.Header.Get("X-Swarmd-Source"), b
	}

	src, cold := post()
	if src != string(SourceRun) {
		t.Fatalf("cold run source = %q, want run", src)
	}
	hits, misses := promCounter(t, ts.URL, "swarmd_cache_hits_total"), promCounter(t, ts.URL, "swarmd_cache_misses_total")
	if hits != 0 || misses != 1 {
		t.Fatalf("after cold run: hits=%v misses=%v, want 0/1", hits, misses)
	}

	src, warm := post()
	if src != string(SourceCache) {
		t.Fatalf("warm run source = %q, want cache", src)
	}
	if !bytes.Equal(cold, warm) {
		t.Error("warm response bytes differ from cold response")
	}
	hits, misses = promCounter(t, ts.URL, "swarmd_cache_hits_total"), promCounter(t, ts.URL, "swarmd_cache_misses_total")
	if hits != 1 || misses != 1 {
		t.Fatalf("after warm run: hits=%v misses=%v, want 1/1 (no new simulation)", hits, misses)
	}
}

// openStore opens a result store rooted in dir, failing the test on error.
func openStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	st, err := store.Open(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// sumRuns totals the completed engine executions across benchmarks.
func sumRuns(c Counters) uint64 {
	var n uint64
	for _, v := range c.RunsByBench {
		n += v
	}
	return n
}

// TestWarmRestartServedFromStore is the warm-restart acceptance check: a
// fig2-tiny sweep runs against a server with a persistent store, the server
// is killed, a fresh server starts on the same directory, and the repeated
// sweep must be byte-identical to the golden with ZERO engine executions —
// verified through swarmd_store_hits_total and the run counters, exactly as
// the CI race job exercises it.
func TestWarmRestartServedFromStore(t *testing.T) {
	golden := fig2Golden(t)
	dir := t.TempDir()

	// Cold server: every point computes, is written through, and the sweep
	// bytes match the golden (compute path).
	svc, ts := startServer(t, Options{Workers: 4, Validate: true, Store: openStore(t, dir)})
	cold := postSweep(t, ts.URL, "json")
	if !bytes.Equal(cold, golden) {
		t.Fatal("cold sweep with store differs from the golden export")
	}
	if runs := sumRuns(svc.Counters()); runs != 8 {
		t.Fatalf("cold sweep executed %d engine runs, want 8", runs)
	}
	if w := svc.Counters().Store.Writes; w != 8 {
		t.Fatalf("cold sweep wrote %d records through, want 8", w)
	}
	// Memory-cache path: same bytes, still zero store hits.
	warmMem := postSweep(t, ts.URL, "json")
	if !bytes.Equal(warmMem, golden) {
		t.Fatal("memory-cached sweep differs from the golden export")
	}
	if h := svc.Counters().Store.Hits; h != 0 {
		t.Fatalf("LRU-served sweep touched the store %d times", h)
	}
	// Kill the server: the LRU dies with it, the store does not.
	ts.Close()
	svc.Close()

	svc2, ts2 := startServer(t, Options{Workers: 4, Validate: true, Store: openStore(t, dir)})
	warm := postSweep(t, ts2.URL, "json")
	if !bytes.Equal(warm, golden) {
		t.Fatal("store-served sweep differs from the golden export")
	}
	if hits := promCounter(t, ts2.URL, "swarmd_store_hits_total"); hits != 8 {
		t.Fatalf("swarmd_store_hits_total = %v, want 8", hits)
	}
	if misses := promCounter(t, ts2.URL, "swarmd_cache_misses_total"); misses != 0 {
		t.Fatalf("restarted sweep attempted %v simulations, want 0", misses)
	}
	if runs := sumRuns(svc2.Counters()); runs != 0 {
		t.Fatalf("restarted sweep executed %d engine runs, want 0", runs)
	}

	// Tier order on the restarted server: first lookup came from the store,
	// a repeat comes from the refilled LRU.
	cfg := Config{Scale: bench.Tiny, Seed: 7,
		Point: exp.Point{Name: "des", Kind: swarm.Random, Cores: 1}}
	if _, src, err := svc2.Stats(context.Background(), cfg); err != nil || src != SourceCache {
		t.Errorf("second lookup after store fill: src=%v err=%v, want cache", src, err)
	}
}

// TestStoreTierSourceAndWriteThrough pins the Stats tier order at the API
// level: run → store (after a restart) → cache, with the run counter only
// moving for real executions and all three results byte-identical.
func TestStoreTierSourceAndWriteThrough(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Scale: bench.Tiny, Seed: 7,
		Point: exp.Point{Name: "des", Kind: swarm.Hints, Cores: 4}}

	svc := New(Options{Workers: 2, Validate: true, Store: openStore(t, dir)})
	defer svc.Close()
	st1, src, err := svc.Stats(context.Background(), cfg)
	if err != nil || src != SourceRun {
		t.Fatalf("cold: src=%v err=%v, want run", src, err)
	}
	svc.Close()

	svc2 := New(Options{Workers: 2, Validate: true, Store: openStore(t, dir)})
	defer svc2.Close()
	st2, src, err := svc2.Stats(context.Background(), cfg)
	if err != nil || src != SourceStore {
		t.Fatalf("restarted: src=%v err=%v, want store", src, err)
	}
	if c := svc2.Counters(); c.Misses != 0 || sumRuns(c) != 0 {
		t.Fatalf("store-served lookup counted as a run: %+v", c)
	}
	st3, src, err := svc2.Stats(context.Background(), cfg)
	if err != nil || src != SourceCache {
		t.Fatalf("repeat: src=%v err=%v, want cache", src, err)
	}

	// All three tiers must serve byte-identical exports.
	enc := func(st *swarm.Stats) []byte {
		var buf bytes.Buffer
		rs := exp.ExportSet([]exp.Point{cfg.Point}, cfg.Scale, cfg.Seed,
			func(exp.Point) *swarm.Stats { return st })
		if err := rs.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b, c := enc(st1), enc(st2), enc(st3)
	if !bytes.Equal(a, b) || !bytes.Equal(b, c) {
		t.Error("compute/store/cache tiers export different bytes")
	}
}

// TestStoreNonSnapshotPayloadRecomputes: a store record whose checksum
// holds but whose payload is not a snapshot is a corrupt miss for the
// service too — the point is computed, not served from the bad record.
func TestStoreNonSnapshotPayloadRecomputes(t *testing.T) {
	dir := t.TempDir()
	cfg := tinyConfig("des", 1)
	st := openStore(t, dir)
	if err := st.Put(cfg.Key(), []byte(`{"cycles":"x"}`)); err != nil {
		t.Fatal(err)
	}
	svc := New(Options{Workers: 1, Validate: true, Store: st})
	defer svc.Close()
	body, src, err := svc.Body(context.Background(), cfg)
	if err != nil || src != SourceRun {
		t.Fatalf("lookup over a non-snapshot record: src=%v err=%v, want run", src, err)
	}
	if err := front.CheckRun(cfg, body); err != nil {
		t.Errorf("recomputed body is malformed: %v", err)
	}
	if c := svc.Counters(); c.Store.Corrupt != 1 || c.Store.Hits != 0 || sumRuns(c) != 1 {
		t.Errorf("store corrupt=%d hits=%d runs=%d, want 1/0/1", c.Store.Corrupt, c.Store.Hits, sumRuns(c))
	}
}

// TestExperimentEndpointMatchesGolden runs the paper's fig2 through
// POST /v1/experiments/fig2 and requires the same golden bytes: figures as
// a service go through the exact same harness as the CLI.
func TestExperimentEndpointMatchesGolden(t *testing.T) {
	svc, ts := startServer(t, Options{Workers: 4, Validate: true})
	resp, err := http.Post(ts.URL+"/v1/experiments/fig2", "application/json",
		strings.NewReader(`{"scale":"tiny","cores":[1,4]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("experiment status %d: %s", resp.StatusCode, b)
	}
	if !bytes.Equal(b, fig2Golden(t)) {
		t.Error("experiment endpoint export differs from the golden file")
	}
	if got := svc.Counters().ExperimentRuns["fig2"]; got != 1 {
		t.Errorf("experiment counter = %d, want 1", got)
	}

	// csv and ndjson are the CLI's encodings of the same runs: the
	// harness export written as CSV, and as NDJSON header, record lines
	// and trailer.
	opt := exp.DefaultOptions(bench.Tiny)
	opt.Cores = []int{1, 4}
	er := exp.NewRunner(opt)
	fig2, err := exp.Find("fig2")
	if err != nil {
		t.Fatal(err)
	}
	if err := fig2.Run(context.Background(), er, io.Discard); err != nil {
		t.Fatal(err)
	}
	rs := er.Export()
	var wantCSV bytes.Buffer
	if err := rs.WriteCSV(&wantCSV); err != nil {
		t.Fatal(err)
	}
	wantNDJSON, err := api.EncodeHeader(api.StreamHeader{Schema: rs.Schema, Fields: rs.Fields, Points: len(rs.Records)})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range rs.Records {
		line, err := api.EncodeRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		wantNDJSON = append(wantNDJSON, line...)
	}
	trailer, err := api.EncodeTrailer(len(rs.Records))
	if err != nil {
		t.Fatal(err)
	}
	wantNDJSON = append(wantNDJSON, trailer...)
	for _, tc := range []struct {
		format, contentType string
		want                []byte
	}{
		{"csv", "text/csv", wantCSV.Bytes()},
		{"ndjson", "application/x-ndjson", wantNDJSON},
	} {
		resp, err := http.Post(ts.URL+"/v1/experiments/fig2", "application/json",
			strings.NewReader(`{"scale":"tiny","cores":[1,4],"format":"`+tc.format+`"}`))
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("experiment %s status %d: %s", tc.format, resp.StatusCode, b)
		}
		if !bytes.Equal(b, tc.want) {
			t.Errorf("experiment %s differs from the CLI's encoding:\n%s\nwant:\n%s", tc.format, b, tc.want)
		}
		if ct := resp.Header.Get("Content-Type"); ct != tc.contentType {
			t.Errorf("experiment %s Content-Type %q, want %q", tc.format, ct, tc.contentType)
		}
	}

	// The figure's points are now cached service-wide: a direct run of one
	// of them must be a cache hit.
	if _, src, err := svc.Stats(context.Background(), Config{
		Scale: bench.Tiny, Seed: 7,
		Point: exp.Point{Name: "des", Kind: swarm.LBHints, Cores: 4},
	}); err != nil || src != SourceCache {
		t.Errorf("experiment results not shared with the service cache: src=%v err=%v", src, err)
	}

	// Unknown experiment ids 404.
	resp, err = http.Post(ts.URL+"/v1/experiments/fig9", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("fig9 status %d, want 404", resp.StatusCode)
	}

	// Text format returns the human tables.
	resp, err = http.Post(ts.URL+"/v1/experiments/fig2", "application/json",
		strings.NewReader(`{"scale":"tiny","cores":[1,4],"format":"text"}`))
	if err != nil {
		t.Fatal(err)
	}
	b, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(b), "des speedup over 1-core") {
		t.Errorf("text format lacks the fig2 table:\n%s", b)
	}
}
