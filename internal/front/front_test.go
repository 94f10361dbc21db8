package front

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"swarmhints/internal/bench"
	"swarmhints/internal/exp"
	"swarmhints/internal/fault"
	"swarmhints/swarm"
	"swarmhints/swarm/api"
)

func TestSweepRequestParseValidation(t *testing.T) {
	bad := []struct {
		req  api.SweepRequest
		code api.Code
	}{
		{api.SweepRequest{}, api.CodeBadRequest},
		{api.SweepRequest{Benches: []string{"des"}, Scheds: []string{"hints"}}, api.CodeBadRequest},
		{api.SweepRequest{Benches: []string{"no-such"}, Scheds: []string{"hints"}, Cores: []int{1}}, api.CodeUnknownBench},
		{api.SweepRequest{Benches: []string{"des"}, Scheds: []string{"warp-speed"}, Cores: []int{1}}, api.CodeUnknownSched},
		{api.SweepRequest{Benches: []string{"des"}, Scheds: []string{"hints"}, Cores: []int{0}}, api.CodeBadCores},
		{api.SweepRequest{Benches: []string{"des"}, Scheds: []string{"hints"}, Cores: []int{1}, Scale: "giant"}, api.CodeUnknownScale},
	}
	for i, tc := range bad {
		_, _, _, aerr := ParseSweep(tc.req)
		if aerr == nil {
			t.Errorf("bad request %d parsed cleanly: %+v", i, tc.req)
			continue
		}
		if aerr.Code != tc.code {
			t.Errorf("bad request %d: code = %q, want %q (message %q)", i, aerr.Code, tc.code, aerr.Message)
		}
		if aerr.Retryable {
			t.Errorf("bad request %d: validation error marked retryable", i)
		}
	}
	req := api.SweepRequest{
		Benches: []string{"des", "des"}, // duplicates collapse
		Scheds:  []string{"random", "hints"},
		Cores:   []int{4, 1},
		Scale:   "tiny",
	}
	points, scale, seed, err := ParseSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	if scale != bench.Tiny || seed != 7 {
		t.Fatalf("harness = (%v, %d), want (tiny, 7)", scale, seed)
	}
	if len(points) != 4 {
		t.Fatalf("grid has %d points, want 4 after dedup", len(points))
	}
	// Canonical order: by scheduler (Random < Hints), then cores.
	want := []exp.Point{
		{Name: "des", Kind: swarm.Random, Cores: 1},
		{Name: "des", Kind: swarm.Random, Cores: 4},
		{Name: "des", Kind: swarm.Hints, Cores: 1},
		{Name: "des", Kind: swarm.Hints, Cores: 4},
	}
	for i := range want {
		if points[i] != want[i] {
			t.Fatalf("point %d = %+v, want %+v", i, points[i], want[i])
		}
	}
}

// TestFanOutReportsRootCause: the first point to fail cancels the grid, and
// the cancellations it causes in the points still in flight never displace
// it as the reported error — whichever point index each landed on.
func TestFanOutReportsRootCause(t *testing.T) {
	boom := errors.New("boom")
	points := []exp.Point{
		{Name: "des", Kind: swarm.Random, Cores: 1},
		{Name: "des", Kind: swarm.Random, Cores: 4},
		{Name: "des", Kind: swarm.Hints, Cores: 1},
	}
	waiting := make(chan struct{}, len(points))
	f := &Front{Parallel: len(points), Exec: func(ctx context.Context, cfg Config) ([]byte, string, error) {
		if cfg.Point == points[2] {
			// Fail only once the other points are in flight, so they can
			// only end as ripples of this failure.
			<-waiting
			<-waiting
			return nil, "", boom
		}
		waiting <- struct{}{}
		<-ctx.Done()
		return nil, "", ctx.Err()
	}}
	_, err := f.fanOut(context.Background(), configs(points, bench.Tiny, 7), nil)
	if !errors.Is(err, boom) {
		t.Fatalf("fan-out reported %v, want the root cause %v", err, boom)
	}
}

// TestFanOutEachErrorCancels: an error from the per-result callback (a
// failed stream write) stops the grid and is the error reported.
func TestFanOutEachErrorCancels(t *testing.T) {
	cut := errors.New("client gone")
	points := []exp.Point{
		{Name: "des", Kind: swarm.Random, Cores: 1},
		{Name: "des", Kind: swarm.Random, Cores: 4},
	}
	f := &Front{Parallel: 1, Exec: func(ctx context.Context, cfg Config) ([]byte, string, error) {
		if err := ctx.Err(); err != nil {
			return nil, "", err
		}
		return []byte("{}"), "", nil
	}}
	calls := 0
	_, err := f.fanOut(context.Background(), configs(points, bench.Tiny, 7), func(int, []byte) error {
		calls++
		return cut
	})
	if !errors.Is(err, cut) {
		t.Fatalf("fan-out reported %v, want the callback's %v", err, cut)
	}
	if calls != 1 {
		t.Errorf("callback ran %d times, want 1: the grid must stop at the first error", calls)
	}
}

func TestRunError(t *testing.T) {
	relayed := api.Errorf(api.CodeUnavailable, "replica down")
	if got := RunError(fmt.Errorf("seed replica 3 (seed 9): %w", relayed)); got != relayed {
		t.Errorf("wrapped wire error mapped to %+v, want it relayed unchanged", got)
	}
	if got := RunError(fmt.Errorf("job: %w", context.Canceled)); got.Code != api.CodeShuttingDown || !got.Retryable {
		t.Errorf("cancellation mapped to %+v, want retryable %s", got, api.CodeShuttingDown)
	}
	if got := RunError(errors.New("engine failed")); got.Code != api.CodeInternal || got.Retryable {
		t.Errorf("engine failure mapped to %+v, want final %s", got, api.CodeInternal)
	}
	if got := RunError(fmt.Errorf("%w at swarmd.run.err", fault.ErrInjected)); got.Code != api.CodeInternal || !got.Retryable {
		t.Errorf("injected failure mapped to %+v, want retryable %s", got, api.CodeInternal)
	}
}
