// Command perfbench is the repository's end-to-end benchmark. One process
// hosts a fleet on loopback — internal/gate in front of two
// internal/service replicas with one worker each, sharing one
// internal/store directory — and drives it with a seeded workload over at
// most nproc client connections. Every response is checked byte for byte
// against references computed in-process.
//
//	perfbench --workload cold-grid|warm-mix|open-mix --seed N --seconds S --trace 0|1
//
// The last line of standard output is one JSON object: the end-to-end
// metrics (--trace 0) or the per-layer metrics of a traced run (--trace 1).
// The command exits 1 after printing when any output was wrong, and 2
// without printing a result when the run could not be carried out.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"strings"
	"syscall"
	"time"

	"swarmhints/internal/bench"
	"swarmhints/internal/obs"
)

// runTimeout bounds a whole run so a wedged fleet fails the run instead
// of hanging it.
const runTimeout = 150 * time.Second

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	scale    bench.Scale // grid scale; tests shrink it
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	cfg := config{scale: bench.Small}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "cold-grid, warm-mix or open-mix")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed")
	flag.IntVar(&cfg.seconds, "seconds", 45, "measured seconds")
	flag.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	flag.Parse()
	cfg.trace = trace == 1
	if cfg.seconds < 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1")
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	res, summary, err := run(ctx, cfg)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	fmt.Println(summary)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and returns its result and a one-line
// human-readable summary.
func run(ctx context.Context, cfg config) (*result, string, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, "", fmt.Errorf("unknown workload %q", cfg.workload)
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)
	tmp, err := os.MkdirTemp("", "perfbench-")
	if err != nil {
		return nil, "", err
	}
	defer func() {
		_ = os.RemoveAll(tmp)
		// Flush the deletions now rather than inside the next run's timed
		// set-ups.
		syscall.Sync()
	}()
	e := &env{cfg: cfg, nproc: nproc, tmp: tmp, hc: newHTTPClient(nproc), w: w}
	defer e.hc.CloseIdleConnections()
	obs.SetEnabled(false)
	if err := w.prepare(ctx, e); err != nil {
		return nil, "", err
	}
	if w.procs > 0 {
		runtime.GOMAXPROCS(w.procs)
	}
	syscall.Sync() // start the timed set-ups with no dirty pages pending
	dur := time.Duration(cfg.seconds) * time.Second
	if cfg.trace {
		return e.traced(ctx, dur/2)
	}

	if err := e.extraSetups(ctx, setupRepeats/2); err != nil {
		return nil, "", err
	}
	p, err := w.measure(ctx, e, dur, nil)
	if err != nil {
		return nil, "", err
	}
	if err := e.extraSetups(ctx, setupRepeats); err != nil {
		return nil, "", err
	}
	res := newResult(p)
	res.Metrics = map[string]metric{
		"setup_s":     {median(e.setups), "s"},
		"sweep_s":     {median(p.sweeps), "s"},
		"p50_ms":      {quantile(p.lat, 0.5), "ms"},
		"peak_rss_mb": {median(p.rss), "MB"},
	}
	summary := fmt.Sprintf("%s seed %d: %d of %d requests failed; %d latency samples (p50 %.3f ms, p99 %.3f ms); %.1f req/s; %d sweeps (median %.4f s); %d set-ups (median %.4f s)",
		cfg.workload, cfg.seed, p.failed, p.attempted, len(p.lat), quantile(p.lat, 0.5), quantile(p.lat, 0.99),
		reqPerS(p), len(p.sweeps), median(p.sweeps), len(e.setups), median(e.setups))
	return res, summary, nil
}

// extraSetups times throwaway set-ups until the run holds n of them.
func (e *env) extraSetups(ctx context.Context, n int) error {
	for len(e.setups) < n {
		f, err := e.setup(ctx, e.cfg.seed, nil)
		if err != nil {
			return err
		}
		f.close()
	}
	return nil
}

func newResult(p phase) *result {
	return &result{Correct: p.failed == 0 && p.attempted > 0, Attempted: p.attempted, Failed: p.failed}
}

// traced runs the workload untraced and then traced, each for dur, plus
// the engine and wire-format replays, and reports the per-layer metrics.
func (e *env) traced(ctx context.Context, dur time.Duration) (*result, string, error) {
	replay := &spanLog{}
	prof, err := e.grid.replay(replay)
	if err != nil {
		return nil, "", err
	}
	cpu, err := cpuShares(prof)
	if err != nil {
		return nil, "", err
	}
	if e.sweepSum != nil {
		// The cold grid's replay must reproduce its committed stream.
		sums, err := e.grid.streamDigests()
		if err != nil {
			return nil, "", err
		}
		if !reflect.DeepEqual(sums, e.sweepSum) {
			return nil, "", fmt.Errorf("replayed cold grid differs from its committed digests")
		}
	}
	untraced, err := e.w.measure(ctx, e, dur, nil)
	if err != nil {
		return nil, "", err
	}
	obs.SetEnabled(true)
	e.layers = newLayerDelta()
	spans := &spanLog{}
	traced, err := e.w.measure(ctx, e, dur, spans)
	obs.SetEnabled(false)
	if err != nil {
		return nil, "", err
	}
	apiM, err := apiReplay(e.grid.records(), replay)
	if err != nil {
		return nil, "", err
	}
	vals := e.layerMetrics(untraced, traced, spans.all(), replay.all(), cpu, apiM)
	both := untraced
	both.merge(traced)
	res := newResult(both)
	res.Metrics = map[string]metric{}
	for name, v := range vals {
		res.Metrics[name] = metric{v, layerUnit(name)}
	}
	summary := fmt.Sprintf("%s seed %d traced: %d of %d requests failed; %d per-layer metrics",
		e.cfg.workload, e.cfg.seed, both.failed, both.attempted, len(vals))
	return res, summary, nil
}

// reqPerS is a phase's completed requests (cold-grid: points) per second.
func reqPerS(p phase) float64 { return ratio(float64(p.done), p.elapsed.Seconds()) }

// layerUnit is a per-layer metric's unit, read off its name.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_us_per_record"):
		return "us"
	case strings.HasSuffix(name, "_share"), strings.HasPrefix(name, "engine.cpu."), name == "gate.replica_skew":
		return "ratio"
	case strings.HasSuffix(name, "bytes_per_record"):
		return "B"
	case name == "engine.tasks_per_s", name == "req_per_s":
		return "1/s"
	}
	return "count"
}
