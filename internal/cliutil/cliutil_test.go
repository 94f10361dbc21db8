package cliutil

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"swarmhints/internal/bench"
	"swarmhints/internal/metrics"
	"swarmhints/swarm"
)

func TestSplitList(t *testing.T) {
	got := SplitList(" a, b ,,c ")
	if strings.Join(got, "|") != "a|b|c" {
		t.Fatalf("SplitList = %v", got)
	}
	if SplitList("") != nil {
		t.Fatal("empty list must be nil")
	}
}

func TestParseInts(t *testing.T) {
	got, err := ParseInts("1, 16,256", "-cores")
	if err != nil || len(got) != 3 || got[2] != 256 {
		t.Fatalf("ParseInts = %v, %v", got, err)
	}
	if _, err := ParseInts("1,x", "-cores"); err == nil || !strings.Contains(err.Error(), "-cores") {
		t.Fatalf("bad value must error naming the flag, got %v", err)
	}
}

func TestParseSched(t *testing.T) {
	for in, want := range map[string]swarm.SchedKind{
		"random": swarm.Random, "Stealing": swarm.Stealing, "HINTS": swarm.Hints,
		"lbhints": swarm.LBHints, "lbidle": swarm.LBIdleProxy, "HintsNoSer": swarm.HintsNoSerial,
	} {
		got, err := ParseSched(in)
		if err != nil || got != want {
			t.Fatalf("ParseSched(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSched("fifo"); err == nil {
		t.Fatal("unknown scheduler must error")
	}
}

func TestParseScheds(t *testing.T) {
	got, err := ParseScheds("random,hints")
	if err != nil || len(got) != 2 || got[1] != swarm.Hints {
		t.Fatalf("ParseScheds = %v, %v", got, err)
	}
}

func TestParseScale(t *testing.T) {
	for in, want := range map[string]bench.Scale{"tiny": bench.Tiny, "Small": bench.Small, "FULL": bench.Full} {
		got, err := ParseScale(in)
		if err != nil || got != want {
			t.Fatalf("ParseScale(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseScale("huge"); err == nil {
		t.Fatal("unknown scale must error")
	}
}

func TestParseOutput(t *testing.T) {
	o, err := ParseOutput("", "")
	if err != nil || o.Enabled() {
		t.Fatalf("default output misparsed: %+v, %v", o, err)
	}
	o, err = ParseOutput("json", "")
	if err != nil || !o.Enabled() || !o.ReplacesHuman() {
		t.Fatalf("json-to-stdout misparsed: %+v, %v", o, err)
	}
	o, err = ParseOutput("csv", "x.csv")
	if err != nil || !o.Enabled() || o.ReplacesHuman() {
		t.Fatalf("csv-to-file misparsed: %+v, %v", o, err)
	}
	if _, err := ParseOutput("", "x.json"); err == nil {
		t.Fatal("-out without -format must error")
	}
	if _, err := ParseOutput("xml", ""); err == nil {
		t.Fatal("unknown format must error")
	}
}

func TestOutputWriteToFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	rs := metrics.NewResultSet("bench")
	rs.Append(map[string]string{"bench": "sssp"}, &metrics.Snapshot{Cycles: 1})
	o := Output{Format: metrics.FormatJSON, Path: path}
	if err := o.Write(io.Discard, rs); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), metrics.SchemaVersion) {
		t.Fatal("written file missing schema version")
	}
	// Disabled output writes nothing.
	var stdout strings.Builder
	if err := (Output{}).Write(&stdout, rs); err != nil {
		t.Fatal(err)
	}
	if stdout.Len() != 0 {
		t.Fatalf("disabled output wrote %q", stdout.String())
	}
}

func TestParseBytes(t *testing.T) {
	good := map[string]int64{
		"":     0,
		"0":    0,
		"1024": 1024,
		"4k":   4 << 10,
		"512M": 512 << 20,
		"2g":   2 << 30,
		"1T":   1 << 40,
		" 8m ": 8 << 20,
	}
	for in, want := range good {
		got, err := ParseBytes(in, "-store-max-bytes")
		if err != nil || got != want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", in, got, err, want)
		}
	}
	for _, in := range []string{"x", "-1", "12q", "k", "9999999999999g"} {
		if _, err := ParseBytes(in, "-store-max-bytes"); err == nil {
			t.Errorf("ParseBytes(%q) accepted", in)
		}
	}
}

func TestOpenStoreDisabled(t *testing.T) {
	s, err := OpenStore("", "1g")
	if err != nil || s != nil {
		t.Fatalf("empty dir should disable the store, got %v, %v", s, err)
	}
	if _, err := OpenStore(t.TempDir(), "bogus"); err == nil {
		t.Fatal("bad size accepted")
	}
	s, err = OpenStore(t.TempDir(), "1m")
	if err != nil || s == nil || s.MaxBytes() != 1<<20 {
		t.Fatalf("OpenStore: %v, %v", s, err)
	}
}

// TestSchedFlagRoundTrips: SchedFlag is the inverse of ParseSched for
// every scheduler kind — the gateway relies on this to forward per-point
// requests a replica will parse back to the same kind.
func TestSchedFlagRoundTrips(t *testing.T) {
	for _, k := range []swarm.SchedKind{
		swarm.Random, swarm.Stealing, swarm.Hints, swarm.LBHints, swarm.LBIdleProxy, swarm.HintsNoSerial,
	} {
		got, err := ParseSched(SchedFlag(k))
		if err != nil || got != k {
			t.Errorf("ParseSched(SchedFlag(%v)) = %v, %v; want round-trip", k, got, err)
		}
	}
}

func TestParseReplicas(t *testing.T) {
	got, err := ParseReplicas("http://a:8080/, https://b:9090")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Join(got, "|") != "http://a:8080|https://b:9090" {
		t.Fatalf("ParseReplicas = %v", got)
	}
	for _, bad := range []string{
		"",
		"a:8080",                       // no scheme
		"ftp://a:8080",                 // wrong scheme
		"http://a:8080,http://a:8080/", // duplicate after normalization
		"http://",                      // no host
	} {
		if _, err := ParseReplicas(bad); err == nil {
			t.Errorf("ParseReplicas(%q) accepted", bad)
		}
	}
}

// TestParseSchedErrorListsKinds: an unknown name is answered with every
// scheduler's flag name, in kind order.
func TestParseSchedErrorListsKinds(t *testing.T) {
	_, err := ParseSched("fifo")
	want := `unknown scheduler "fifo" (have random, stealing, hints, lbhints, lbidle, hintsnoser)`
	if err == nil || err.Error() != want {
		t.Fatalf("ParseSched(fifo) error = %v, want %s", err, want)
	}
}
