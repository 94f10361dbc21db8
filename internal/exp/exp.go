// Package exp is the experiment harness: one runner per table and figure of
// the paper's evaluation (Sec. II-C, IV, V, VI), each regenerating the same
// rows or series the paper reports, on the scaled synthetic inputs. The
// per-experiment index lives in DESIGN.md; measured-vs-paper shapes are
// recorded in EXPERIMENTS.md.
package exp

import (
	"context"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"

	"swarmhints/internal/bench"
	"swarmhints/internal/metrics"
	"swarmhints/internal/runner"
	"swarmhints/internal/store"
	"swarmhints/swarm"
)

// Options configures a harness run.
type Options struct {
	Scale    bench.Scale
	Seed     int64
	Cores    []int // sweep, set per scale by DefaultOptions; the last is the single-point machine
	Validate bool  // validate each run against the serial reference
	// Parallel bounds the worker goroutines used to execute independent
	// simulation runs concurrently (0 = GOMAXPROCS). Every run is an
	// isolated, deterministic engine, so results — and therefore every
	// figure and table — are byte-identical for any Parallel value.
	Parallel int
	// Exec, when non-nil, replaces direct point execution: every simulation
	// an experiment performs is a Point, and each one not already in the
	// runner's cache is executed through it instead of RunPoint. The /v1
	// front end (internal/front) injects its daemon's point executor here —
	// swarmd's shared result cache, request coalescing and worker fleet, or
	// swarmgate's replica router; results must be exactly what
	// RunPoint(p, Scale, Seed, Validate) would return.
	Exec func(ctx context.Context, p Point) (*swarm.Stats, error)
	// Store, when non-nil, adds a persistent tier under the in-memory
	// result cache: every cache miss consults the store (keyed by
	// ConfigKey) before executing, and every executed result is written
	// through, so repeated CLI invocations reuse each other's runs. Ignored
	// when Exec is set — a pluggable executor (the swarmd service) owns its
	// own caching tiers.
	Store *store.Store
	// Seeds > 1 runs every point as that many seed replicas (workload
	// seeds ReplicaSeeds(Seed, Seeds)) and caches/exports the fixed-order
	// merged aggregate, with cross-seed dispersion in SeedSummary. Each
	// replica is store-tiered under its own per-seed ConfigKey, so raising
	// Seeds later only runs the seeds not yet on disk. Ignored when Exec
	// is set: a pluggable executor binds the harness seed.
	Seeds int
	// SeedShards bounds the shard jobs the Seeds replicas of one point are
	// partitioned into (0 = one replica per shard). Shard boundaries are a
	// pure function of (Seeds, SeedShards), so results are byte-identical
	// at any value.
	SeedShards int
}

// seeds returns the effective seed-replica count (minimum 1).
func (o Options) seeds() int {
	if o.Seeds > 1 && o.Exec == nil {
		return o.Seeds
	}
	return 1
}

// DefaultOptions returns the standard configuration for a scale.
func DefaultOptions(scale bench.Scale) Options {
	o := Options{Scale: scale, Seed: 7, Validate: true}
	switch scale {
	case bench.Tiny:
		o.Cores = []int{1, 4, 16, 64}
	case bench.Small:
		o.Cores = []int{1, 4, 16, 64, 144, 256}
	default:
		o.Cores = []int{1, 4, 16, 36, 64, 100, 144, 196, 256}
	}
	return o
}

func (o Options) maxCores() int { return o.Cores[len(o.Cores)-1] }

// Runner executes experiments and caches per-configuration results so
// multi-figure invocations don't repeat runs. The cache is guarded by a
// mutex so Prime can fill it from the parallel sweep runner's worker pool.
type Runner struct {
	opt Options

	mu    sync.Mutex
	cache map[string]*swarm.Stats
	pts   map[string]Point // configuration behind each cache key, for Export
}

// NewRunner builds a runner.
func NewRunner(opt Options) *Runner {
	return &Runner{opt: opt, cache: make(map[string]*swarm.Stats), pts: make(map[string]Point)}
}

// Point identifies one simulation configuration: a benchmark run under a
// scheduler at a core count, optionally with access profiling.
type Point struct {
	Name    string
	Kind    swarm.SchedKind
	Cores   int
	Profile bool
}

// Key is the canonical configuration key: it identifies one simulation
// point within a (scale, seed) harness. The experiment cache, the export
// sort order, and the service layer's shared result cache
// (internal/service) all key on it.
func (p Point) Key() string {
	return p.Name + "/" + p.Kind.String() + "/" + strconv.Itoa(p.Cores) + "/" + strconv.FormatBool(p.Profile)
}

// ConfigKey is the canonical fully-qualified configuration key: the
// (scale, seed) harness prefix followed by the point key. It is the one key
// every result tier shares — the swarmd service's LRU (service.Config.Key)
// and the persistent on-disk store (internal/store) both key on exactly
// these bytes, which is what lets the CLIs, the experiment harness, and a
// fleet of swarmd replicas reuse each other's results.
func ConfigKey(scale bench.Scale, seed int64, p Point) string {
	return scale.String() + "/" + strconv.FormatInt(seed, 10) + "/" + p.Key()
}

// MaxPointCycles is the watchdog bound every canonical configuration point
// runs under (RunPoint sets it on the scaled machine).
const MaxPointCycles = 20_000_000_000

// RunOn executes one configuration on the machine base: build the benchmark
// at (scale, seed), run it on base sized for p.Cores under p.Kind with
// p.Profile, and optionally check the result against the serial reference.
// Every other machine parameter of base, its watchdog included, is kept.
// It is the one build → run → validate body: RunPoint and swarmsim's
// custom-queue machines both run through it.
func RunOn(base swarm.Config, p Point, scale bench.Scale, seed int64, validate bool) (*swarm.Stats, error) {
	inst, err := bench.Build(p.Name, scale, seed)
	if err != nil {
		return nil, err
	}
	cfg := base.WithCores(p.Cores)
	cfg.Scheduler = p.Kind
	cfg.Profile = p.Profile
	st, err := inst.Prog.Run(cfg)
	if err != nil {
		return nil, fmt.Errorf("%s under %v at %d cores: %w", p.Name, p.Kind, p.Cores, err)
	}
	if validate {
		if err := inst.Validate(); err != nil {
			return nil, fmt.Errorf("%s under %v at %d cores failed validation: %w", p.Name, p.Kind, p.Cores, err)
		}
	}
	return st, nil
}

// RunPoint executes one canonical configuration from scratch: RunOn on the
// paper's scaled machine under the MaxPointCycles watchdog. It is the
// execution path behind every harness cache miss — the experiment Runner
// and the swarmd service both call it, which is what makes their outputs
// byte-identical for the same configuration.
func RunPoint(p Point, scale bench.Scale, seed int64, validate bool) (*swarm.Stats, error) {
	cfg := swarm.ScaledConfig()
	cfg.MaxCycles = MaxPointCycles
	return RunOn(cfg, p, scale, seed, validate)
}

// Run executes one (benchmark, scheduler, cores) point, with optional
// access profiling, validating against the serial reference when enabled.
func (r *Runner) Run(ctx context.Context, name string, kind swarm.SchedKind, cores int, profile bool) (*swarm.Stats, error) {
	p := Point{Name: name, Kind: kind, Cores: cores, Profile: profile}
	key := p.Key()
	r.mu.Lock()
	st, ok := r.cache[key]
	r.mu.Unlock()
	if ok {
		return st, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	st, err := r.runPoint(ctx, p)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	r.cache[key] = st
	r.pts[key] = p
	r.mu.Unlock()
	return st, nil
}

// runPoint executes one configuration without touching the in-memory cache.
// It uses the harness seed for the workload regardless of who calls it — the
// paper methodology holds the input fixed across every configuration — which
// is also what makes parallel and sequential executions byte-identical.
// Without an Exec the point runs as a SeedRun, whose replicas go through the
// persistent Store tier when one is configured.
func (r *Runner) runPoint(ctx context.Context, p Point) (*swarm.Stats, error) {
	if r.opt.Exec != nil {
		return r.opt.Exec(ctx, p)
	}
	sr := r.seedRun(p)
	if sr.Seeds > 1 {
		merged, _, err := sr.Run(ctx)
		return merged, err
	}
	return sr.runReplica(ctx, sr.BaseSeed)
}

// Prime executes every not-yet-cached point concurrently through the sweep
// runner and fills the cache with the results. Each experiment calls it
// with its full configuration grid up front, so the subsequent formatting
// loops hit the cache and only the independent simulations fan out across
// host cores. Duplicated points are run once; the first failure (by grid
// order, so deterministically) is returned.
func (r *Runner) Prime(ctx context.Context, points []Point) error {
	seen := make(map[string]bool, len(points))
	var todo []Point
	r.mu.Lock()
	for _, p := range points {
		key := p.Key()
		if seen[key] || r.cache[key] != nil {
			continue
		}
		seen[key] = true
		todo = append(todo, p)
	}
	r.mu.Unlock()
	if len(todo) == 0 {
		return nil
	}
	if r.opt.seeds() > 1 {
		return r.primeSeeds(ctx, todo)
	}
	jobs := make([]runner.Job, len(todo))
	for i, p := range todo {
		p := p
		jobs[i] = runner.Job{
			Name: p.Key(),
			// The derived sweep seed is ignored: experiment points fix the
			// workload seed (see runPoint), so priming changes when runs
			// happen, never what they compute.
			Run: func(int64) (*swarm.Stats, error) { return r.runPoint(ctx, p) },
		}
	}
	results := runner.Sweep(ctx, jobs, runner.Options{Parallel: r.opt.Parallel, Seed: r.opt.Seed})
	r.mu.Lock()
	for i, res := range results {
		if res.Err == nil && res.Stats != nil {
			key := todo[i].Key()
			r.cache[key] = res.Stats
			r.pts[key] = todo[i]
		}
	}
	r.mu.Unlock()
	return runner.FirstErr(results)
}

// seedRun builds the seed-replica fan-out of one point from the runner's
// options.
func (r *Runner) seedRun(p Point) SeedRun {
	return SeedRun{
		Point:    p,
		Scale:    r.opt.Scale,
		BaseSeed: r.opt.Seed,
		Seeds:    r.opt.seeds(),
		Shards:   r.opt.SeedShards,
		Parallel: r.opt.Parallel,
		Validate: r.opt.Validate,
		Store:    r.opt.Store,
	}
}

// primeSeeds primes not-yet-cached points in multi-seed mode: every point's
// seed replicas are partitioned into shard jobs and all points' shards are
// flattened onto one worker pool, then each point's replicas are merged in
// fixed seed order. Shard boundaries and merge order are pure functions of
// the options, so the cached aggregates are byte-identical at any Parallel.
func (r *Runner) primeSeeds(ctx context.Context, todo []Point) error {
	per := make([][]*swarm.Stats, len(todo))
	var jobs []runner.Job
	for i, p := range todo {
		per[i] = make([]*swarm.Stats, r.opt.seeds())
		jobs = append(jobs, r.seedRun(p).ShardJobs(ctx, per[i])...)
	}
	results := runner.Sweep(ctx, jobs, runner.Options{Parallel: r.opt.Parallel, Seed: r.opt.Seed})
	if err := runner.FirstErr(results); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for i, p := range todo {
		merged, err := swarm.MergeStats(per[i])
		if err != nil {
			return err
		}
		key := p.Key()
		r.cache[key] = merged
		r.pts[key] = p
	}
	return nil
}

// PrimeGrid is Prime over the cross product names × kinds × cores.
func (r *Runner) PrimeGrid(ctx context.Context, names []string, kinds []swarm.SchedKind, cores []int, profile bool) error {
	return r.Prime(ctx, Grid(names, kinds, cores, profile))
}

// Grid enumerates the cross product names × kinds × cores as configuration
// points, in the deterministic nesting order the sweep tools use.
func Grid(names []string, kinds []swarm.SchedKind, cores []int, profile bool) []Point {
	var points []Point
	for _, n := range names {
		for _, k := range kinds {
			for _, c := range cores {
				points = append(points, Point{Name: n, Kind: k, Cores: c, Profile: profile})
			}
		}
	}
	return points
}

// ExportFields is the label column order of Export's result sets.
var ExportFields = []string{"bench", "sched", "cores", "profile", "scale", "seed"}

// DedupSorted returns the distinct configurations among points, in the
// canonical export order. The input is not modified.
func DedupSorted(points []Point) []Point {
	uniq := make([]Point, 0, len(points))
	seen := make(map[string]bool, len(points))
	for _, p := range points {
		if key := p.Key(); !seen[key] {
			seen[key] = true
			uniq = append(uniq, p)
		}
	}
	SortPoints(uniq)
	return uniq
}

// SortPoints orders configurations into the canonical export order:
// by benchmark, scheduler, cores, then profile flag.
func SortPoints(points []Point) {
	sort.Slice(points, func(i, j int) bool {
		a, b := points[i], points[j]
		if a.Name != b.Name {
			return a.Name < b.Name
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Cores != b.Cores {
			return a.Cores < b.Cores
		}
		return !a.Profile && b.Profile
	})
}

// PointLabels returns the canonical export labels of a configuration point
// within a (scale, seed) harness, keyed by ExportFields.
func PointLabels(p Point, scale bench.Scale, seed int64) map[string]string {
	return map[string]string{
		"bench":   p.Name,
		"sched":   p.Kind.String(),
		"cores":   strconv.Itoa(p.Cores),
		"profile": strconv.FormatBool(p.Profile),
		"scale":   scale.String(),
		"seed":    strconv.FormatInt(seed, 10),
	}
}

// ExportSet assembles the canonical machine-readable result set for a set
// of configuration points: deduplicated, sorted by configuration, labeled
// by ExportFields. stats supplies each point's statistics; points it
// returns nil for are skipped. The experiment Runner's Export goes through
// this assembler, and the /v1 front end's per-point bodies (front.Body)
// are pinned byte for byte to it, so equal point sets encode to identical
// bytes no matter who served them.
func ExportSet(points []Point, scale bench.Scale, seed int64, stats func(Point) *swarm.Stats) *metrics.ResultSet {
	uniq := DedupSorted(points)
	rs := metrics.NewResultSet(ExportFields...)
	for _, p := range uniq {
		st := stats(p)
		if st == nil {
			continue
		}
		sn := st.Snapshot()
		if sn.SeedSummary != nil {
			// Any merged multi-seed record upgrades the set's stamp; pure
			// v1 sets (every existing golden and cache entry) are untouched.
			rs.Schema = metrics.SchemaVersionV2
		}
		rs.Append(PointLabels(p, scale, seed), sn)
	}
	return rs
}

// Export returns every simulation point the runner has executed so far as a
// machine-readable result set: per-tile and aggregate statistics labeled by
// (bench, sched, cores, profile, scale, seed), sorted by configuration.
// Because records come from the deterministic result cache and are sorted,
// the encoded bytes are identical for every Options.Parallel value.
func (r *Runner) Export() *metrics.ResultSet {
	r.mu.Lock()
	points := make([]Point, 0, len(r.pts))
	for _, p := range r.pts {
		points = append(points, p)
	}
	r.mu.Unlock()
	return ExportSet(points, r.opt.Scale, r.opt.Seed, func(p Point) *swarm.Stats {
		r.mu.Lock()
		defer r.mu.Unlock()
		return r.cache[p.Key()]
	})
}

// Speedup returns cycles(1 core) / cycles(cores) for a benchmark/scheduler.
func (r *Runner) Speedup(ctx context.Context, name string, kind swarm.SchedKind, cores int) (float64, error) {
	base, err := r.Run(ctx, name, swarm.Random, 1, false) // all schedulers equal at 1 core
	if err != nil {
		return 0, err
	}
	st, err := r.Run(ctx, name, kind, cores, false)
	if err != nil {
		return 0, err
	}
	return float64(base.Cycles) / float64(st.Cycles), nil
}

// Experiment is one table/figure regenerator. Run respects ctx: cancellation
// stops priming at the next job boundary and aborts the experiment.
type Experiment struct {
	ID    string
	Title string
	Run   func(ctx context.Context, r *Runner, w io.Writer) error
}

// Registry lists every experiment in paper order.
var Registry = []Experiment{
	{"table1", "Table I: benchmark inventory and 1-core run-times", Table1},
	{"fig2", "Fig. 2: des under Random/Stealing/Hints/LBHints", Fig2},
	{"fig3", "Fig. 3: classification of memory accesses (CG)", Fig3},
	{"fig4", "Fig. 4: speedup of Random/Stealing/Hints, 9 benchmarks", Fig4},
	{"fig5", "Fig. 5: cycle and NoC traffic breakdowns at max cores", Fig5},
	{"fig6", "Fig. 6: CG vs FG access classification", Fig6},
	{"fig7", "Fig. 7: CG vs FG speedups", Fig7},
	{"fig8", "Fig. 8: FG cycle and traffic breakdowns", Fig8},
	{"fig10", "Fig. 10: LBHints speedups, all benchmarks", Fig10},
	{"fig11", "Fig. 11: cycle breakdowns with LBHints", Fig11},
	{"lbproxy", "Sec. VI-A: committed-cycle vs idle-task load signals", LBProxy},
	{"ablserial", "Ablation: hint mapping with vs without dispatch serialization", AblSerial},
	{"summary", "Sec. VI-B: gmean speedups, wasted work, traffic", Summary},
}

// Find returns the experiment with the given id.
func Find(id string) (Experiment, error) {
	for _, e := range Registry {
		if e.ID == id {
			return e, nil
		}
	}
	var ids []string
	for _, e := range Registry {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q (have %v)", id, ids)
}

func gmean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// breakdownRow formats a cycle breakdown normalized to a reference total.
func breakdownRow(b swarm.CycleBreakdown, ref float64) string {
	f := func(x uint64) float64 { return float64(x) / ref }
	return fmt.Sprintf("commit=%.3f abort=%.3f spill=%.3f stall=%.3f empty=%.3f total=%.3f",
		f(b.Commit), f(b.Abort), f(b.Spill), f(b.Stall), f(b.Empty), f(b.Total()))
}

// trafficRow formats a traffic breakdown normalized to a reference total.
func trafficRow(t [4]uint64, ref float64) string {
	f := func(x uint64) float64 { return float64(x) / ref }
	return fmt.Sprintf("mem=%.3f abort=%.3f task=%.3f gvt=%.3f total=%.3f",
		f(t[0]), f(t[1]), f(t[2]), f(t[3]), f(t[0]+t[1]+t[2]+t[3]))
}

func sumTraffic(t [4]uint64) float64 {
	return float64(t[0] + t[1] + t[2] + t[3])
}
