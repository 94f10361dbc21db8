package exp

import (
	"bytes"
	"context"
	"strings"
	"testing"

	"swarmhints/internal/bench"
	"swarmhints/swarm"
)

// microRunner keeps figure smoke tests fast: Tiny inputs, two machine sizes.
func microRunner() *Runner {
	o := DefaultOptions(bench.Tiny)
	o.Cores = []int{1, 16}
	return NewRunner(o)
}

func TestFig4AllBenchmarksListed(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig4(context.Background(), microRunner(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range bench.Names() {
		if !strings.Contains(out, name+"\n") {
			t.Fatalf("Fig4 output missing %s", name)
		}
	}
	if !strings.Contains(out, "Stealing") {
		t.Fatal("Fig4 must report the Stealing series")
	}
}

func TestFig5BreakdownsNormalized(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig5(context.Background(), microRunner(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "commit=") || !strings.Contains(out, "mem=") {
		t.Fatalf("Fig5 output malformed:\n%s", out)
	}
	// Random's own normalized cycle total must be 1.000 by construction.
	if !strings.Contains(out, "Random     commit=") {
		t.Fatalf("Fig5 missing Random rows:\n%s", out)
	}
	if !strings.Contains(out, "total=1.000") {
		t.Fatal("Fig5 normalization broken: Random total must be 1.000")
	}
}

func TestFig7ReportsBothGrains(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig7(context.Background(), microRunner(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "CG-Hints") || !strings.Contains(out, "FG-Hints") {
		t.Fatalf("Fig7 must report CG and FG series:\n%s", out)
	}
}

func TestFig8FGRows(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig8(context.Background(), microRunner(), &buf); err != nil {
		t.Fatal(err)
	}
	for _, n := range bench.FGNames() {
		if !strings.Contains(buf.String(), n+"-fg") {
			t.Fatalf("Fig8 missing %s-fg", n)
		}
	}
}

func TestFig10IncludesLB(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig10(context.Background(), microRunner(), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "LBHints") {
		t.Fatal("Fig10 must include the LBHints series")
	}
}

func TestFig11FourBenchmarks(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig11(context.Background(), microRunner(), &buf); err != nil {
		t.Fatal(err)
	}
	for _, n := range []string{"des", "nocsim", "silo", "kmeans"} {
		if !strings.Contains(buf.String(), n) {
			t.Fatalf("Fig11 missing %s", n)
		}
	}
}

func TestBestVariantPrefersFaster(t *testing.T) {
	r := microRunner()
	v, err := r.bestVariant(context.Background(), "sssp", 2 /* Hints */)
	if err != nil {
		t.Fatal(err)
	}
	if v != "sssp" && v != "sssp-fg" {
		t.Fatalf("bestVariant returned %q", v)
	}
	// Benchmarks without FG variants return themselves.
	v, err = r.bestVariant(context.Background(), "des", 2)
	if err != nil {
		t.Fatal(err)
	}
	if v != "des" {
		t.Fatalf("bestVariant(des) = %q", v)
	}
}

func TestGmean(t *testing.T) {
	if g := gmean([]float64{1, 100}); g < 9.9 || g > 10.1 {
		t.Fatalf("gmean(1,100) = %f, want 10", g)
	}
	if gmean(nil) != 0 {
		t.Fatal("gmean of empty slice must be 0")
	}
}

func TestAblSerialRuns(t *testing.T) {
	var buf bytes.Buffer
	r := microRunner()
	if err := AblSerial(context.Background(), r, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "NoSer") {
		t.Fatalf("ablation output malformed:\n%s", buf.String())
	}
}

func TestSerializationAblationStaysCorrect(t *testing.T) {
	// Serialization is purely a performance mechanism: dropping it
	// (HintsNoSerial) must never change results (conflict detection still
	// enforces order). The performance direction varies by benchmark and
	// scale, so the ablation reports it rather than asserting it.
	for _, kind := range []swarm.SchedKind{swarm.Hints, swarm.HintsNoSerial} {
		inst, err := bench.Build("kmeans", bench.Tiny, 3)
		if err != nil {
			t.Fatal(err)
		}
		cfg := swarm.ScaledConfig().WithCores(16)
		cfg.Scheduler = kind
		if _, err := inst.Prog.Run(cfg); err != nil {
			t.Fatal(err)
		}
		if err := inst.Validate(); err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
	}
}
