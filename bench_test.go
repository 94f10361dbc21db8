// Package swarmhints_test hosts one testing.B benchmark per table and
// figure of the paper's evaluation (exp.Registry, `experiments -list`),
// plus engine hot-path micro-benchmarks (allocs/op on the enqueue/commit
// path) and a sweep-level wall-clock benchmark over internal/runner.
// Each figure benchmark regenerates its experiment at Tiny scale with a
// reduced core sweep so `go test -bench=.` completes in minutes; use
// `go run ./cmd/experiments -scale small` (or full) for the figures at
// their larger scales.
package swarmhints_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"swarmhints/internal/bench"
	"swarmhints/internal/calq"
	"swarmhints/internal/conflict"
	"swarmhints/internal/exp"
	"swarmhints/internal/gate"
	"swarmhints/internal/mem"
	"swarmhints/internal/obs"
	"swarmhints/internal/runner"
	"swarmhints/internal/service"
	"swarmhints/internal/store"
	"swarmhints/internal/task"
	"swarmhints/swarm"
)

func benchRunner() *exp.Runner {
	o := exp.DefaultOptions(bench.Tiny)
	o.Cores = []int{1, 4, 16, 64}
	return exp.NewRunner(o)
}

func runExperiment(b *testing.B, fn func(context.Context, *exp.Runner, io.Writer) error) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		r := benchRunner()
		if err := fn(context.Background(), r, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates Table I (benchmark inventory, 1-core
// run-times, task functions, hint patterns).
func BenchmarkTable1(b *testing.B) { runExperiment(b, exp.Table1) }

// BenchmarkFig2 regenerates Fig. 2 (des under all four schedulers plus its
// cycle breakdown).
func BenchmarkFig2(b *testing.B) { runExperiment(b, exp.Fig2) }

// BenchmarkFig3 regenerates Fig. 3 (classification of memory accesses).
func BenchmarkFig3(b *testing.B) { runExperiment(b, exp.Fig3) }

// BenchmarkFig4 regenerates Fig. 4 (Random/Stealing/Hints speedups for all
// nine benchmarks).
func BenchmarkFig4(b *testing.B) { runExperiment(b, exp.Fig4) }

// BenchmarkFig5 regenerates Fig. 5 (cycle and NoC traffic breakdowns).
func BenchmarkFig5(b *testing.B) { runExperiment(b, exp.Fig5) }

// BenchmarkFig6 regenerates Fig. 6 (coarse- vs fine-grain access
// classification).
func BenchmarkFig6(b *testing.B) { runExperiment(b, exp.Fig6) }

// BenchmarkFig7 regenerates Fig. 7 (coarse- vs fine-grain speedups).
func BenchmarkFig7(b *testing.B) { runExperiment(b, exp.Fig7) }

// BenchmarkFig8 regenerates Fig. 8 (fine-grain cycle and traffic
// breakdowns).
func BenchmarkFig8(b *testing.B) { runExperiment(b, exp.Fig8) }

// BenchmarkFig10 regenerates Fig. 10 (LBHints speedups on all benchmarks).
func BenchmarkFig10(b *testing.B) { runExperiment(b, exp.Fig10) }

// BenchmarkFig11 regenerates Fig. 11 (cycle breakdowns under LBHints).
func BenchmarkFig11(b *testing.B) { runExperiment(b, exp.Fig11) }

// BenchmarkLBProxy regenerates the Sec. VI-A load-signal ablation
// (committed cycles vs idle-task counts).
func BenchmarkLBProxy(b *testing.B) { runExperiment(b, exp.LBProxy) }

// BenchmarkSummary regenerates the Sec. VI-B aggregate numbers (gmean
// speedups, wasted-work and traffic reductions).
func BenchmarkSummary(b *testing.B) { runExperiment(b, exp.Summary) }

// treeProgram builds a program whose root fans out a binary tree of the
// given depth; each leaf read-modify-writes a private word. With 2^depth
// leaves and 2^(depth+1)-1 tasks total, the run is dominated by the engine's
// enqueue → dispatch → commit path, making it the micro-benchmark for
// per-task allocation overhead.
func treeProgram(depth int) *swarm.Program {
	p := swarm.NewProgram()
	leaves := uint64(1) << uint(depth)
	slots := p.Mem.AllocWords(leaves)
	var fn swarm.FnID
	fn = p.Register("node", func(c *swarm.Ctx) {
		d, idx := c.Arg(0), c.Arg(1)
		if d == 0 {
			addr := slots + idx*8
			c.Write(addr, c.Read(addr)+1)
			return
		}
		c.Enqueue(fn, c.TS()+1, slots+idx*16, d-1, idx*2)
		c.EnqueueSameHint(fn, c.TS()+1, d-1, idx*2+1)
	})
	p.EnqueueRoot(fn, 0, slots, uint64(depth), 0)
	return p
}

// engineBench runs one engine-level micro-benchmark configuration and
// reports allocations per simulated task, the number every hot-path
// optimization PR must not regress.
func engineBench(b *testing.B, build func() *swarm.Program, cores int, kind swarm.SchedKind) {
	b.Helper()
	cfg := swarm.ScaledConfig().WithCores(cores)
	cfg.Scheduler = kind
	b.ReportAllocs()
	b.ResetTimer()
	var tasks uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p := build()
		b.StartTimer()
		st, err := p.Run(cfg)
		if err != nil {
			b.Fatal(err)
		}
		tasks += st.CommittedTasks
	}
	b.ReportMetric(float64(tasks)/float64(b.N), "tasks/op")
}

// BenchmarkEngineEnqueueCommit measures the conflict-free enqueue/commit
// throughput path: a 16K-task fan-out tree under Hints on 16 cores.
func BenchmarkEngineEnqueueCommit(b *testing.B) {
	engineBench(b, func() *swarm.Program { return treeProgram(13) }, 16, swarm.Hints)
}

// BenchmarkEngineContended measures the abort/retry path: 4096 same-hint
// increments of one shared counter, which serializes through conflict
// detection and commit-queue pressure.
func BenchmarkEngineContended(b *testing.B) {
	build := func() *swarm.Program {
		p := swarm.NewProgram()
		ctr := p.Mem.AllocWords(1)
		var fn swarm.FnID
		fn = p.Register("inc", func(c *swarm.Ctx) {
			c.Write(ctr, c.Read(ctr)+1)
		})
		for i := 0; i < 4096; i++ {
			p.EnqueueRoot(fn, uint64(i), ctr)
		}
		return p
	}
	engineBench(b, build, 16, swarm.Hints)
}

// BenchmarkConflictIndex measures the conflict-detection structure in
// isolation: a rolling window of tasks registering reads and writes over a
// shared address pool, queried (hit and miss addresses) and removed — the
// register/query/remove cycle every simulated access pays.
func BenchmarkConflictIndex(b *testing.B) {
	const (
		window  = 256 // live tasks
		addrs   = 1024
		perTask = 8
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ix := conflict.NewIndex(nil)
		var pool task.Pool
		tasks := make([]*task.Task, window)
		for j := range tasks {
			t := pool.Get(uint64(j+1), 0, uint64(j), task.HintNone, 0, nil, nil)
			t.State = task.Running
			tasks[j] = t
		}
		b.StartTimer()
		for round := 0; round < 64; round++ {
			for j, t := range tasks {
				// Deterministic pseudo-random-ish address pattern.
				base := uint64((round*31 + j*perTask) % addrs)
				for k := 0; k < perTask; k++ {
					a := 0x10000 + ((base + uint64(k*37)) % addrs * 8)
					if k%2 == 0 {
						ix.OnRead(t, a)
						t.Reads = append(t.Reads, a)
					} else {
						ix.OnWrite(t, a)
						t.Writes = append(t.Writes, a)
					}
					ix.LaterWriters(a, t.Ord(), t, 0)
					// Miss query: address outside the registered pool,
					// one failed table probe.
					ix.LaterAccessors(0x900000+a, t.Ord(), t, 0)
				}
			}
			for _, t := range tasks {
				ix.Remove(t)
				t.ResetAttempt()
			}
		}
	}
}

// BenchmarkMemLoadStore measures the sparse-memory fast path: strided loads
// and stores sweeping a 4 MB working set (page-local runs mixed with page
// crossings), the two operations every simulated memory access performs.
func BenchmarkMemLoadStore(b *testing.B) {
	const words = 1 << 19 // 4 MB
	m := mem.New()
	base := m.AllocWords(words)
	for w := uint64(0); w < words; w += 64 {
		m.StoreRaw(base+w*8, w)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sink uint64
	for i := 0; i < b.N; i++ {
		for w := uint64(0); w < words; w++ {
			a := base + w*8
			sink += m.Load(a)
			if w%3 == 0 {
				m.StoreRaw(a, sink)
			}
		}
	}
	if sink == 1 {
		b.Fatal("impossible; defeats dead-code elimination")
	}
}

// BenchmarkEventQueue measures the calendar queue under the engine's event
// pattern: a few hundred pending events clustered within a few hundred
// cycles of now, popped and replaced one wake-up at a time, with an
// occasional far-future straggler exercising the overflow heap.
func BenchmarkEventQueue(b *testing.B) {
	const (
		pending = 512
		churn   = 1 << 16
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := calq.New[int](1024)
		rng := uint64(0x9e3779b97f4a7c15)
		next := func() uint64 {
			rng = rng*6364136223846793005 + 1442695040888963407
			return rng >> 16
		}
		now, seq := uint64(0), uint64(0)
		for j := 0; j < pending; j++ {
			seq++
			q.Push(now+next()%400, seq, j)
		}
		for j := 0; j < churn; j++ {
			e := q.Pop()
			now = e.Time
			seq++
			d := next() % 400
			if next()%64 == 0 {
				d = 2048 + next()%8192 // beyond the window: overflow path
			}
			q.Push(now+d, seq, j)
		}
		for q.Len() > 0 {
			q.Pop()
		}
	}
}

// BenchmarkSpillSelect measures the coalescer's victim selection: a full
// tile queue repeatedly spilling its latest-order batch to memory and
// pulling it back, the spill/refill cycle a saturated tile pays. Selection
// reads the order-sorted idle ring from the back, so each firing costs
// O(batch), not a walk of the whole idle set.
func BenchmarkSpillSelect(b *testing.B) {
	const (
		capacity = 256
		batch    = 15
		rounds   = 64
	)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		q := task.NewQueue(0, capacity, 64)
		var pool task.Pool
		for j := 0; j < capacity; j++ {
			q.Enqueue(pool.Get(uint64(j+1), 0, uint64(j), task.HintNone, 0, nil, nil))
		}
		b.StartTimer()
		for round := 0; round < rounds; round++ {
			if len(q.Spill(batch)) == 0 {
				b.Fatal("nothing spilled from a full queue")
			}
			if len(q.Refill(batch)) == 0 {
				b.Fatal("nothing refilled")
			}
		}
	}
}

// BenchmarkSeedMerge measures the seed-replica merge fold: 16 per-seed
// results of one Tiny configuration collapsed into the aggregate record
// (counter sums, per-tile adds, derived recompute, cross-seed dispersion
// summary). The per-seed inputs are simulated once outside the timed
// region, so the number is the merge itself, not the simulations.
func BenchmarkSeedMerge(b *testing.B) {
	const seeds = 16
	p := exp.Point{Name: "des", Kind: swarm.Hints, Cores: 4}
	per := make([]*swarm.Stats, seeds)
	for i, s := range exp.ReplicaSeeds(7, seeds) {
		st, err := exp.RunPoint(p, bench.Tiny, s, false)
		if err != nil {
			b.Fatal(err)
		}
		per[i] = st
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := swarm.MergeStats(per); err != nil {
			b.Fatal(err)
		}
	}
}

// warmGrid is the gateway benchmarks' grid — des under three schedulers
// at 1, 16 and 64 cores, small scale, seed 7 — simulated once per process:
// testing.Benchmark sets a benchmark up several times.
var warmGrid = sync.OnceValues(func() (map[exp.Point]*swarm.Stats, error) {
	grid := make(map[exp.Point]*swarm.Stats)
	for _, p := range exp.Grid([]string{"des"}, []swarm.SchedKind{swarm.Random, swarm.Hints, swarm.LBHints}, []int{1, 16, 64}, false) {
		st, err := exp.RunPoint(p, bench.Small, 7, false)
		if err != nil {
			return nil, err
		}
		grid[p] = st
	}
	return grid, nil
})

// warmGateway starts an in-process gateway over one replica whose store
// holds the warm grid, and returns a poster of requests to the gateway
// that fails the benchmark on any error or non-200 answer.
func warmGateway(b *testing.B) func(path string, req []byte) {
	grid, err := warmGrid()
	if err != nil {
		b.Fatal(err)
	}
	st, err := store.Open(b.TempDir(), 0)
	if err != nil {
		b.Fatal(err)
	}
	for p, stats := range grid {
		if err := st.PutStats(exp.ConfigKey(bench.Small, 7, p), stats); err != nil {
			b.Fatal(err)
		}
	}
	svc := service.New(service.Options{Workers: 1, Store: st})
	b.Cleanup(svc.Close)
	replica := httptest.NewServer(svc.Handler())
	b.Cleanup(replica.Close)
	g, err := gate.New(gate.Options{Replicas: []string{replica.URL}, ProbeInterval: -1})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(g.Close)
	front := httptest.NewServer(g.Handler())
	b.Cleanup(front.Close)
	return func(path string, req []byte) {
		resp, err := http.Post(front.URL+path, "application/json", bytes.NewReader(req))
		if err != nil {
			b.Fatal(err)
		}
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			b.Fatalf("warm %s: status %d, %v", path, resp.StatusCode, err)
		}
	}
}

// BenchmarkGatewayWarmRun measures one warm POST /v1/run end to end through
// an in-process gateway over one replica whose LRU already holds the point
// (a 16-core small-scale des record): the client's request, the gateway's
// routing and check of the replica's answer, the replica's cached body, and
// the relay back to the client, all over loopback HTTP.
func BenchmarkGatewayWarmRun(b *testing.B) {
	post := warmGateway(b)
	req := []byte(`{"bench":"des","sched":"hints","cores":16,"scale":"small","seed":7}`)
	post("/v1/run", req) // the store hit that fills the replica's LRU
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post("/v1/run", req)
	}
}

// BenchmarkGatewayWarmSweep measures one warm 9-point NDJSON POST /v1/sweep
// end to end through an in-process gateway over one replica whose LRU
// already holds every point: the gateway's per-point runs against the
// replica, its check of each body, the record lines cut from them, and the
// stream back to the client, all over loopback HTTP.
func BenchmarkGatewayWarmSweep(b *testing.B) {
	post := warmGateway(b)
	req := []byte(`{"benches":["des"],"scheds":["random","hints","lbhints"],"cores":[1,16,64],"scale":"small","seed":7}`)
	post("/v1/sweep", req) // the store hits that fill the replica's LRU
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		post("/v1/sweep", req)
	}
}

// BenchmarkObsDisabled pins the disabled-path cost of the observability
// layer (internal/obs): one iteration walks every instrumentation shape a
// request path carries — StartSpan with attributes, a Timer, a direct
// histogram observation, and the span End — with observability switched
// off. The contract is the same as internal/fault's: each point costs one
// atomic load and zero allocations, so allocs/op must stay 0 (gated by
// benchgate against BENCH_baseline.json; ns/op is excluded from the gate
// as sub-nanosecond-scale noise).
func BenchmarkObsDisabled(b *testing.B) {
	obs.SetEnabled(false)
	h := obs.NewHistogram(nil)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sctx, sp := obs.StartSpan(ctx, "bench.op")
		sp.SetAttr("key", "value")
		t := obs.StartTimer()
		h.Observe(time.Millisecond)
		t.Observe(h)
		sp.End()
		if sctx != ctx {
			b.Fatal("disabled StartSpan must return the caller's context unchanged")
		}
	}
	if h.Count() != 0 {
		b.Fatal("disabled observations were recorded")
	}
}

// trajectoryPoint is one recorded perf-trajectory measurement, written as
// BENCH_<rev>.json by TestBenchTrajectory (see README, "Perf trajectory").
type trajectoryPoint struct {
	Schema     string          `json:"schema"`
	Rev        string          `json:"rev"`
	Benchmarks []trajectoryRow `json:"benchmarks"`
}

type trajectoryRow struct {
	Name        string  `json:"name"`
	NsPerOp     int64   `json:"nsPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
	BytesPerOp  int64   `json:"bytesPerOp"`
	TasksPerOp  float64 `json:"tasksPerOp,omitempty"`
}

// TestBenchTrajectory records one perf-trajectory point: it runs the engine
// hot-path micro-benchmarks through testing.Benchmark and writes their
// ns/op and allocs/op to the JSON file named by SWARMHINTS_BENCH_JSON
// (conventionally BENCH_<rev>.json, with the revision from SWARMHINTS_REV).
// Skipped unless the env var is set, so `go test` stays side-effect free;
// CI runs it on every push and uploads the file as a workflow artifact.
func TestBenchTrajectory(t *testing.T) {
	path := os.Getenv("SWARMHINTS_BENCH_JSON")
	if path == "" {
		t.Skip("set SWARMHINTS_BENCH_JSON=BENCH_<rev>.json to record a trajectory point")
	}
	rev := os.Getenv("SWARMHINTS_REV")
	if rev == "" {
		rev = "unversioned"
	}
	point := trajectoryPoint{Schema: "swarmhints.bench.v1", Rev: rev}
	for _, b := range []struct {
		name string
		fn   func(*testing.B)
	}{
		{"EngineEnqueueCommit", BenchmarkEngineEnqueueCommit},
		{"EngineContended", BenchmarkEngineContended},
		{"EventQueue", BenchmarkEventQueue},
		{"SpillSelect", BenchmarkSpillSelect},
		{"ConflictIndex", BenchmarkConflictIndex},
		{"MemLoadStore", BenchmarkMemLoadStore},
		{"SweepRunner", BenchmarkSweepRunner},
		{"SeedMerge", BenchmarkSeedMerge},
		{"GatewayWarmRun", BenchmarkGatewayWarmRun},
		{"GatewayWarmSweep", BenchmarkGatewayWarmSweep},
		{"ObsDisabled", BenchmarkObsDisabled},
	} {
		res := testing.Benchmark(b.fn)
		point.Benchmarks = append(point.Benchmarks, trajectoryRow{
			Name:        b.name,
			NsPerOp:     res.NsPerOp(),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			TasksPerOp:  res.Extra["tasks/op"],
		})
	}
	data, err := json.MarshalIndent(point, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("trajectory point for rev %s written to %s", rev, path)
}

// BenchmarkSweepRunner measures sweep-level wall clock through
// internal/runner: the bfs benchmark at Tiny scale across a core sweep,
// executed by the worker pool at GOMAXPROCS parallelism.
func BenchmarkSweepRunner(b *testing.B) {
	coreSweep := []int{1, 4, 16, 64}
	jobs := make([]runner.Job, len(coreSweep))
	for i, cores := range coreSweep {
		cores := cores
		jobs[i] = runner.Job{
			Name: "bfs",
			Run: func(seed int64) (*swarm.Stats, error) {
				inst, err := bench.Build("bfs", bench.Tiny, seed)
				if err != nil {
					return nil, err
				}
				cfg := swarm.ScaledConfig().WithCores(cores)
				cfg.Scheduler = swarm.Hints
				return inst.Prog.Run(cfg)
			},
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := runner.Sweep(context.Background(), jobs, runner.Options{Seed: 7})
		if err := runner.FirstErr(results); err != nil {
			b.Fatal(err)
		}
	}
}
