package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"

	"swarmhints/internal/bench"
)

func TestSchedulesDeterministicPerSeed(t *testing.T) {
	g := newGrid(bench.Tiny, 1)
	l := layout{points: len(g.points), benches: len(bench.Names())}

	a, b, c := warmSequence(1, 0, 500, l, g.points), warmSequence(1, 0, 500, l, g.points), warmSequence(2, 0, 500, l, g.points)
	if !reflect.DeepEqual(a, b) {
		t.Error("warm sequence differs between two runs of one seed")
	}
	if reflect.DeepEqual(a, c) {
		t.Error("warm sequence identical for seeds 1 and 2")
	}
	if reflect.DeepEqual(a, warmSequence(1, 1, 500, l, g.points)) {
		t.Error("two clients of one seed send the same sequence")
	}

	for _, seed := range []int64{1, 2} {
		hot := hotOrder(seed, g.points)
		seen := map[int]bool{}
		for rank, i := range hot {
			seen[i] = true
			if want := gridCores[rank%len(gridCores)]; g.points[i].Cores != want {
				t.Fatalf("seed %d: rank %d has %d cores, want %d", seed, rank, g.points[i].Cores, want)
			}
		}
		if len(seen) != len(g.points) {
			t.Fatalf("seed %d: hot order covers %d of %d points", seed, len(seen), len(g.points))
		}
	}

	s1, c1 := openSchedule(1, 5*time.Second, l, g.points)
	s2, c2 := openSchedule(1, 5*time.Second, l, g.points)
	s3, _ := openSchedule(2, 5*time.Second, l, g.points)
	if !reflect.DeepEqual(s1, s2) || !reflect.DeepEqual(c1, c2) {
		t.Error("open schedule differs between two runs of one seed")
	}
	if reflect.DeepEqual(s1, s3) {
		t.Error("open schedule identical for seeds 1 and 2")
	}
	per := map[int]int{}
	for i, a := range s1 {
		if i > 0 && a.due < s1[i-1].due {
			t.Fatalf("arrival %d due before its predecessor", i)
		}
		if a.req >= l.cold(0) {
			per[a.req]++
		}
	}
	if len(per) != len(c1) || len(c1) == 0 {
		t.Fatalf("%d cold requests for %d cold points", len(per), len(c1))
	}
	for req, n := range per {
		if n < 2 || n > 3 {
			t.Errorf("cold request %d sent %d times, want 2-3", req, n)
		}
	}
	// About openRate arrival events per second, each 1 or 2-3 arrivals.
	if n := float64(len(s1)) / 5; n < openRate*0.8 || n > openRate*1.3 {
		t.Errorf("open schedule rate %.0f/s, want about %.0f/s", n, openRate)
	}
}

func at(ms int) time.Time { return time.Unix(0, 0).Add(time.Duration(ms) * time.Millisecond) }

func sp(lo, hi int) span { return span{start: at(lo), end: at(hi)} }

func TestSelfTime(t *testing.T) {
	for _, tc := range []struct {
		name     string
		parent   span
		children []span
		want     int // ms
	}{
		{"no children", sp(0, 10), nil, 10},
		{"disjoint", sp(0, 10), []span{sp(1, 2), sp(4, 6)}, 7},
		{"overlapping children count once", sp(0, 10), []span{sp(1, 3), sp(2, 5)}, 6},
		{"nested children", sp(0, 10), []span{sp(1, 9), sp(2, 3)}, 2},
		{"children clipped to the parent", sp(0, 10), []span{sp(-5, 2), sp(8, 15)}, 6},
		{"child outside the parent", sp(0, 10), []span{sp(20, 30)}, 10},
		{"fully covered", sp(0, 10), []span{sp(0, 6), sp(6, 10)}, 0},
	} {
		if got := selfTime(tc.parent, tc.children); got != time.Duration(tc.want)*time.Millisecond {
			t.Errorf("%s: self time %v, want %dms", tc.name, got, tc.want)
		}
	}
	busy := busyByReplica([]span{
		{replica: 0, start: at(0), end: at(4)}, {replica: 0, start: at(2), end: at(6)},
		{replica: 1, start: at(1), end: at(2)},
	}, 2)
	if busy[0] != 6*time.Millisecond || busy[1] != time.Millisecond {
		t.Errorf("busy per replica %v, want [6ms 1ms]", busy)
	}
}

func TestFuncPackage(t *testing.T) {
	for name, want := range map[string]string{
		"swarmhints/internal/calq.(*Queue[swarmhints/internal/sim.event]).Push": "calq",
		"swarmhints/internal/sim.(*Engine).step":                                "sim",
		"swarmhints/internal/sim.Run.func1":                                     "sim",
		"swarmhints/internal/metrics.(*Snapshot).values":                        "other",
		"swarmhints/swarm.(*Program).Run":                                       "other",
		"runtime.mallocgc":                                                      "runtime",
		"internal/runtime/maps.(*Map).getWithKey":                               "runtime",
		"sort.Slice": "other",
		"":           "other",
	} {
		if got := bucketOf(funcPackage(name)); got != want {
			t.Errorf("bucket of %q = %q, want %q", name, got, want)
		}
	}
}

// pb is a minimal protobuf writer for building test profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
	return p
}

func (p *pb) bytes(field int, b []byte) *pb {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
	return p
}

func (p *pb) packed(field int, vs ...uint64) *pb {
	var inner []byte
	for _, v := range vs {
		inner = binary.AppendUvarint(inner, v)
	}
	return p.bytes(field, inner)
}

func TestCPUSharesOnSmallProfile(t *testing.T) {
	names := []string{"",
		"swarmhints/internal/calq.(*Queue[swarmhints/internal/sim.event]).Push",
		"runtime.mallocgc",
		"swarmhints/internal/sim.(*Engine).step",
		"sort.Slice",
	}
	prof := &pb{}
	for id := 1; id < len(names); id++ {
		prof.bytes(profFunction, (&pb{}).varint(funcID, uint64(id)).varint(funcName, uint64(id)).b)
	}
	line := func(fn int) []byte { return (&pb{}).varint(lineFunction, uint64(fn)).b }
	prof.bytes(profLocation, (&pb{}).varint(locID, 1).bytes(locLine, line(1)).b)
	// Location 2: mallocgc inlined into Engine.step — the innermost frame wins.
	prof.bytes(profLocation, (&pb{}).varint(locID, 2).bytes(locLine, line(2)).bytes(locLine, line(3)).b)
	prof.bytes(profLocation, (&pb{}).varint(locID, 3).bytes(locLine, line(3)).b)
	prof.bytes(profLocation, (&pb{}).varint(locID, 4).bytes(locLine, line(4)).b)
	prof.bytes(profSample, (&pb{}).packed(sampleLocation, 1, 3).packed(sampleValue, 3, 30).b)
	prof.bytes(profSample, (&pb{}).packed(sampleLocation, 2).packed(sampleValue, 1, 10).b)
	// An unpacked repeated field is legal protobuf too.
	prof.bytes(profSample, (&pb{}).varint(sampleLocation, 3).varint(sampleValue, 2).varint(sampleValue, 20).b)
	prof.bytes(profSample, (&pb{}).packed(sampleLocation, 4, 3).packed(sampleValue, 4, 40).b)
	for _, s := range names {
		prof.bytes(profStrings, []byte(s))
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(prof.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	shares, err := cpuShares(gz.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"calq": 0.3, "runtime": 0.1, "sim": 0.2, "other": 0.4}
	for _, b := range cpuBuckets {
		if math.Abs(shares[b]-want[b]) > 1e-9 {
			t.Errorf("share of %s = %v, want %v", b, shares[b], want[b])
		}
	}
	if _, err := cpuShares([]byte("not a profile")); err == nil {
		t.Error("garbage parsed as a profile")
	}
}

// spin burns CPU so a real profile has samples.
func spin(d time.Duration) (x uint64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
	}
	return x
}

func TestCPUSharesOnRuntimeProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiling unavailable:", err)
	}
	spin(300 * time.Millisecond)
	pprof.StopCPUProfile()
	shares, err := cpuShares(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, v := range shares {
		sum += v
	}
	if sum != 0 && math.Abs(sum-1) > 1e-9 {
		t.Errorf("bucket shares sum to %v", sum)
	}
	if sum != 0 && shares["other"] < 0.5 {
		t.Errorf("spin loop in package main landed %.2f in other, want most of it", shares["other"])
	}
}

var update = flag.Bool("update", false, "rewrite testdata/cold-grid.sha256 from the in-process reference")

// TestColdGridDigests recomputes the figure grid in-process with
// exp.RunPoint and checks the committed per-line stream digests the
// cold-grid workload verifies against.
func TestColdGridDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("computes the 81-point small grid")
	}
	g := newGrid(bench.Small, figureSeed)
	if err := g.compute(context.Background(), runtime.NumCPU()); err != nil {
		t.Fatal(err)
	}
	sums, err := g.streamDigests()
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, s := range sums {
		b.WriteString(hex.EncodeToString(s[:]) + "\n")
	}
	if *update {
		if err := os.WriteFile("testdata/cold-grid.sha256", []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if b.String() != coldGridDigests {
		t.Fatal("testdata/cold-grid.sha256 differs from the in-process reference; rerun with -update only when the outputs are meant to change")
	}
}

// benchmarkSpec is the part of BENCHMARK.json the smoke test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestSmoke runs every workload briefly at tiny scale, untraced and traced,
// including open-mix, which BENCHMARK.json does not gate, and checks that
// outputs verify and every metric BENCHMARK.json lists is reported with
// its unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke runs take several seconds")
	}
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json lists unknown workload %q", w.Name)
		}
	}
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: name, seed: 3, seconds: 1, trace: trace, scale: bench.Tiny}
			res, _, err := run(context.Background(), cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", name, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", name, m.Name, got.Unit, m.Unit)
				case !trace && !(got.Value > 0):
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, m.Name, got.Value)
				}
			}
		}
	}
}
