package exp

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"

	"swarmhints/internal/bench"
	"swarmhints/swarm"
)

func tinyRunner() *Runner {
	o := DefaultOptions(bench.Tiny)
	o.Cores = []int{1, 4, 16}
	return NewRunner(o)
}

func TestFindRegistry(t *testing.T) {
	for _, id := range []string{"table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8", "fig10", "fig11", "lbproxy", "summary"} {
		if _, err := Find(id); err != nil {
			t.Fatalf("experiment %q missing: %v", id, err)
		}
	}
	if _, err := Find("fig9"); err == nil {
		t.Fatal("fig9 does not exist in the paper's evaluation; Find must error")
	}
}

func TestRunnerCaches(t *testing.T) {
	r := tinyRunner()
	a, err := r.Run(context.Background(), "sssp", swarm.Hints, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Run(context.Background(), "sssp", swarm.Hints, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("identical configurations must be served from cache")
	}
}

func TestSpeedupBaseline(t *testing.T) {
	r := tinyRunner()
	s, err := r.Speedup(context.Background(), "sssp", swarm.Random, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s != 1.0 {
		t.Fatalf("1-core speedup = %f, want exactly 1", s)
	}
}

func TestTable1Output(t *testing.T) {
	var buf bytes.Buffer
	if err := Table1(context.Background(), tinyRunner(), &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, name := range bench.Names() {
		if !strings.Contains(out, name) {
			t.Fatalf("Table1 output missing %s:\n%s", name, out)
		}
	}
	if !strings.Contains(out, "Logic gate ID") {
		t.Fatal("Table1 must report hint patterns")
	}
}

func TestFig2Runs(t *testing.T) {
	var buf bytes.Buffer
	if err := Fig2(context.Background(), tinyRunner(), &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "LBHints") || !strings.Contains(buf.String(), "commit=") {
		t.Fatalf("Fig2 output malformed:\n%s", buf.String())
	}
}

func TestFig3Fractions(t *testing.T) {
	var buf bytes.Buffer
	r := tinyRunner()
	if err := Fig3(context.Background(), r, &buf); err != nil {
		t.Fatal(err)
	}
	// All nine benchmarks profiled, each row's fractions summing to ~1.
	st, err := r.Run(context.Background(), "des", swarm.Hints, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	cl := st.Classification
	sum := cl.MultiHintRO + cl.SingleHintRO + cl.MultiHintRW + cl.SingleHintRW + cl.Arguments
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("des classification sums to %f", sum)
	}
	// des operates on single gates: read-write data must be predominantly
	// single-hint (Fig. 3's key property for des).
	if cl.SingleHintRW < cl.MultiHintRW {
		t.Fatalf("des RW data mostly multi-hint (%f vs %f); hint = gate ID should localize it",
			cl.MultiHintRW, cl.SingleHintRW)
	}
}

func TestFig6FGTallerBars(t *testing.T) {
	// FG versions perform more accesses, so their normalized bar height
	// must exceed ~1 (Fig. 6: +8% for sssp up to 4.6x for color).
	r := tinyRunner()
	cg, err := r.Run(context.Background(), "color", swarm.Hints, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	fg, err := r.Run(context.Background(), "color-fg", swarm.Hints, 4, true)
	if err != nil {
		t.Fatal(err)
	}
	if fg.Classification.TotalAccesses <= cg.Classification.TotalAccesses {
		t.Fatal("color FG must perform more accesses than CG")
	}
}

func TestLBProxyRuns(t *testing.T) {
	var buf bytes.Buffer
	r := tinyRunner()
	if err := LBProxy(context.Background(), r, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "LBIdleTasks") {
		t.Fatalf("LBProxy output malformed:\n%s", buf.String())
	}
}

func TestSummaryRuns(t *testing.T) {
	var buf bytes.Buffer
	r := tinyRunner()
	if err := Summary(context.Background(), r, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"gmean", "Random", "Hints+FG", "LBHints", "traffic reduction"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestValidationCatchesRuns(t *testing.T) {
	// With Validate on (the default), every cached run has been checked
	// against the serial reference; a bad benchmark name must error.
	r := tinyRunner()
	if _, err := r.Run(context.Background(), "bogus", swarm.Random, 1, false); err == nil {
		t.Fatal("unknown benchmark must error")
	}
}

// TestParallelMatchesSequential is the harness-level determinism contract:
// priming the grid through the parallel sweep runner must produce the exact
// bytes the sequential path produces, for every experiment that exercises
// both cached and bespoke (AblSerial) runs.
func TestParallelMatchesSequential(t *testing.T) {
	for _, id := range []string{"fig2", "ablserial"} {
		e, err := Find(id)
		if err != nil {
			t.Fatal(err)
		}
		var outputs []string
		for _, parallel := range []int{1, 8} {
			o := DefaultOptions(bench.Tiny)
			o.Cores = []int{1, 4}
			o.Parallel = parallel
			var buf bytes.Buffer
			if err := e.Run(context.Background(), NewRunner(o), &buf); err != nil {
				t.Fatalf("%s with Parallel=%d: %v", id, parallel, err)
			}
			outputs = append(outputs, buf.String())
		}
		if outputs[0] != outputs[1] {
			t.Errorf("%s: Parallel=1 and Parallel=8 outputs differ:\n--- p1\n%s\n--- p8\n%s", id, outputs[0], outputs[1])
		}
	}
}

// TestPrimeFailureIsDeterministic checks a failing grid point surfaces the
// lowest-index error regardless of worker count.
func TestPrimeFailureIsDeterministic(t *testing.T) {
	var msgs []string
	for _, parallel := range []int{1, 4} {
		o := DefaultOptions(bench.Tiny)
		o.Parallel = parallel
		r := NewRunner(o)
		err := r.Prime(context.Background(), []Point{
			{Name: "no-such-bench", Kind: swarm.Hints, Cores: 4},
			{Name: "also-missing", Kind: swarm.Hints, Cores: 4},
		})
		if err == nil {
			t.Fatal("Prime of unknown benchmarks must fail")
		}
		msgs = append(msgs, err.Error())
	}
	if msgs[0] != msgs[1] {
		t.Errorf("error differs across parallelism: %q vs %q", msgs[0], msgs[1])
	}
	if !strings.Contains(msgs[0], "no-such-bench") {
		t.Errorf("error should name the first failing point, got %q", msgs[0])
	}
}

// TestConfigKeyBytes pins the canonical key's bytes: every result tier and
// the gateway's routing hash key on them, so they must read exactly as the
// "%s/%d/%s/%v/%d/%v" format of (scale, seed, name, kind, cores, profile).
func TestConfigKeyBytes(t *testing.T) {
	if got, want := ConfigKey(bench.Tiny, 1, Point{Name: "des", Kind: swarm.Hints, Cores: 4}), "tiny/1/des/Hints/4/false"; got != want {
		t.Fatalf("ConfigKey = %q, want %q", got, want)
	}
	for _, scale := range []bench.Scale{bench.Tiny, bench.Small, bench.Full} {
		for _, seed := range []int64{1, 7, -3, 1 << 40} {
			for _, kind := range []swarm.SchedKind{swarm.Random, swarm.Stealing, swarm.Hints, swarm.LBHints, swarm.LBIdleProxy} {
				for _, cores := range []int{1, 16, 256} {
					for _, profile := range []bool{false, true} {
						p := Point{Name: "sssp", Kind: kind, Cores: cores, Profile: profile}
						want := fmt.Sprintf("%s/%d/%s/%v/%d/%v", scale, seed, p.Name, kind, cores, profile)
						if got := ConfigKey(scale, seed, p); got != want {
							t.Fatalf("ConfigKey = %q, want %q", got, want)
						}
					}
				}
			}
		}
	}
}
