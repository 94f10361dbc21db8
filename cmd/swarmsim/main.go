// Command swarmsim runs Swarm simulations: a single benchmark under one
// scheduler on one machine size with detailed statistics, or a full
// paper-style sweep — benchmarks × schedulers × core counts × task/commit
// queue sizes × seed replicas — executed concurrently through the parallel
// sweep runner (internal/runner) in one command.
//
// Every comma-separated flag value widens the sweep; when the sweep has
// exactly one point the detailed single-run report is printed, otherwise
// one table row per run, in sweep order regardless of completion order.
// Results are byte-identical for every -parallel value.
//
// -format json|csv emits the machine-readable result set (per-tile and
// aggregate statistics, schema swarmhints.metrics.v1) instead of the human
// report; with -out FILE the structured results go to the file and the
// human report keeps stdout. Progress goes to stderr either way.
//
// Usage:
//
//	swarmsim -bench sssp -sched hints -cores 64 -scale small
//	swarmsim -bench des -sched lbhints -cores 256 -profile
//	swarmsim -bench bfs,sssp,des -sched random,hints -cores 1,16,64 -parallel 8
//	swarmsim -bench silo -cores 64 -taskq 16,32,64 -commitq 4,8,16
//	swarmsim -bench des -cores 64 -seeds 5       # 5 derived-seed replicas
//	swarmsim -bench des -cores 64 -seeds 8 -seed-shards 4  # one merged record with error bars
//	swarmsim -bench mis -cores 64 -format json   # machine-readable results
//	swarmsim -bench bfs -cores 1,16 -format csv -out sweep.csv
//	swarmsim -bench des -cores 64 -store results.store  # reuse results across invocations
//	swarmsim -list
//
// Every configuration runs as one exp.SeedRun — its -seeds replicas, as
// -seed-shards shard jobs (0 = one job per replica) — and all
// configurations' shard jobs share one sweep-runner worker pool. The output
// is one row per replica, or with -seed-shards one merged row per
// configuration.
//
// -store DIR adds the persistent result store (internal/store): sweep
// points at the default queue sizes are the same canonical configurations
// cmd/experiments and swarmd run, so they are served from the shared
// directory when warm and written through when computed. Custom -taskq or
// -commitq values change the simulated machine and always execute.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"swarmhints/internal/bench"
	"swarmhints/internal/cliutil"
	"swarmhints/internal/exp"
	"swarmhints/internal/metrics"
	"swarmhints/internal/runner"
	"swarmhints/swarm"
)

// sweepFields is the label column order of the sweep's result set.
var sweepFields = []string{"bench", "sched", "cores", "taskq", "commitq", "replica", "seed", "scale"}

// mergedFields is the label column order in -seed-shards mode: one merged
// record per configuration, labeled with the replica count and base seed
// instead of a per-replica index.
var mergedFields = []string{"bench", "sched", "cores", "taskq", "commitq", "seeds", "seed", "scale"}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "swarmsim:", err)
		os.Exit(1)
	}
}

// config is one sweep configuration: the seed replicas of one point on one
// machine.
type config struct {
	exp.SeedRun
	machine swarm.Config // the scaled config with any -taskq/-commitq override
}

// record is one output row: its labels and its (per-replica or merged)
// statistics.
type record struct {
	labels map[string]string
	st     *swarm.Stats
}

// run is the whole command: parse args, run the sweep, and write the report
// to stdout and progress to stderr.
func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("swarmsim", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		benchList  = fs.String("bench", "sssp", "benchmark name(s), comma-separated (see -list)")
		schedList  = fs.String("sched", "hints", "scheduler(s), comma-separated: random|stealing|hints|lbhints|lbidle|hintsnoser")
		coresList  = fs.String("cores", "64", "core count(s), comma-separated (1 or 4*K*K)")
		taskqList  = fs.String("taskq", "", "task-queue entries per core, comma-separated (default: scaled config)")
		commitList = fs.String("commitq", "", "commit-queue entries per core, comma-separated (default: scaled config)")
		scaleName  = fs.String("scale", "small", "input scale: tiny|small|full")
		seed       = fs.Int64("seed", 7, "workload seed (sweep seed when -seeds > 1)")
		seeds      = fs.Int("seeds", 1, "seed replicas per configuration, derived from -seed")
		seedShards = fs.Int("seed-shards", 0, "merge the -seeds replicas of each configuration into one record with cross-seed error bars, sharded into at most N shard jobs (0 = per-replica records)")
		parallel   = fs.Int("parallel", 0, "runs in flight at once (0 = GOMAXPROCS)")
		profile    = fs.Bool("profile", false, "collect access classification (Fig. 3) when the output has one row: one configuration, with one seed or with -seed-shards")
		validate   = fs.Bool("validate", true, "check results against the serial reference")
		format     = fs.String("format", "", "machine-readable output: json|csv (default: human report)")
		outFile    = fs.String("out", "", "write structured results to FILE (keeps human report on stdout)")
		storeDir   = fs.String("store", "", "persistent result-store directory shared with swarmd/experiments (empty = no store)")
		storeMax   = fs.String("store-max-bytes", "", "result-store size cap, e.g. 512m or 2g (empty/0 = unbounded)")
		list       = fs.Bool("list", false, "list benchmarks and exit")
	)
	fs.Parse(args) // ExitOnError: a bad flag exits 2, -h exits 0

	if *list {
		fmt.Fprintln(stdout, "benchmarks:", strings.Join(bench.AllNames(), " "))
		return nil
	}

	output, err := cliutil.ParseOutput(*format, *outFile)
	if err != nil {
		return err
	}
	scale, err := cliutil.ParseScale(*scaleName)
	if err != nil {
		return err
	}
	resultStore, err := cliutil.OpenStore(*storeDir, *storeMax)
	if err != nil {
		return err
	}
	if resultStore != nil {
		c := resultStore.Counters()
		fmt.Fprintf(stderr, "swarmsim: result store %s (%d records, %d bytes)\n",
			resultStore.Dir(), c.Records, c.Bytes)
	}
	benches := cliutil.SplitList(*benchList)
	kinds, err := cliutil.ParseScheds(*schedList)
	if err != nil {
		return err
	}
	cores, err := cliutil.ParseInts(*coresList, "-cores")
	if err != nil {
		return err
	}
	taskqs, err := cliutil.ParseInts(*taskqList, "-taskq")
	if err != nil {
		return err
	}
	commitqs, err := cliutil.ParseInts(*commitList, "-commitq")
	if err != nil {
		return err
	}
	if len(benches) == 0 {
		return fmt.Errorf("-bench lists no benchmarks")
	}
	if len(kinds) == 0 {
		return fmt.Errorf("-sched lists no schedulers")
	}
	if len(cores) == 0 {
		return fmt.Errorf("-cores lists no core counts")
	}
	// Zero means "keep the scaled config's default" for queue dimensions.
	if len(taskqs) == 0 {
		taskqs = []int{0}
	}
	if len(commitqs) == 0 {
		commitqs = []int{0}
	}
	if *seeds < 1 {
		*seeds = 1
	}
	// -seed-shards switches to merged-record mode: each configuration's
	// replicas collapse into one record with cross-seed error bars (schema
	// swarmhints.metrics.v2), byte-identical for every -seed-shards and
	// -parallel value because replicas always merge in fixed seed order.
	merged := *seedShards > 0
	if merged && *seeds < 2 {
		return fmt.Errorf("-seed-shards requires -seeds > 1")
	}
	rows := len(benches) * len(kinds) * len(cores) * len(taskqs) * len(commitqs)
	if !merged {
		rows *= *seeds
	}

	// Enumerate the configurations in deterministic sweep order. A
	// configuration at the default queue sizes is an experiment-harness
	// point, so its replicas share the persistent store under the same
	// canonical key as cmd/experiments and swarmd; custom queue sizes change
	// the machine, so those replicas run on it directly and always execute.
	var cfgs []config
	for _, b := range benches {
		for _, k := range kinds {
			for _, c := range cores {
				for _, tq := range taskqs {
					for _, cq := range commitqs {
						cfg := config{
							SeedRun: exp.SeedRun{
								Point:    exp.Point{Name: b, Kind: k, Cores: c, Profile: *profile && rows == 1},
								Scale:    scale,
								BaseSeed: *seed,
								Seeds:    *seeds,
								Shards:   *seedShards,
								Validate: *validate,
								Store:    resultStore,
							},
							machine: swarm.ScaledConfig(),
						}
						if tq > 0 {
							cfg.machine.TaskQPerCore = tq
						}
						if cq > 0 {
							cfg.machine.CommitQPerCore = cq
						}
						if tq > 0 || cq > 0 {
							machine := cfg.machine
							cfg.Exec = func(_ context.Context, wseed int64, p exp.Point) (*swarm.Stats, error) {
								return exp.RunOn(machine, p, scale, wseed, *validate)
							}
						}
						cfgs = append(cfgs, cfg)
					}
				}
			}
		}
	}

	// Every configuration's shard jobs go on one worker pool. Interrupt
	// cancels the sweep at the next job boundary; completed jobs are still
	// reported through OnResult, canceled ones never are.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	per := make([][]*swarm.Stats, len(cfgs))
	var jobs []runner.Job
	for i, c := range cfgs {
		per[i] = make([]*swarm.Stats, *seeds)
		jobs = append(jobs, c.ShardJobs(ctx, per[i])...)
	}
	done := 0
	results := runner.Sweep(ctx, jobs, runner.Options{
		Parallel: *parallel,
		Seed:     *seed,
		OnResult: func(res runner.Result) {
			done++
			fmt.Fprintf(stderr, "swarmsim: [%d/%d] %s\n", done, len(jobs), res.Name)
		},
	})
	if err := runner.FirstErr(results); err != nil {
		return err
	}

	// One row per replica (each at its own workload seed), or one merged
	// row per configuration (at the base seed).
	var recs []record
	for i, c := range cfgs {
		labels := func(key, val string, seed int64) map[string]string {
			return map[string]string{
				"bench":   c.Point.Name,
				"sched":   c.Point.Kind.String(),
				"cores":   strconv.Itoa(c.Point.Cores),
				"taskq":   strconv.Itoa(c.machine.TaskQPerCore),
				"commitq": strconv.Itoa(c.machine.CommitQPerCore),
				key:       val,
				"seed":    strconv.FormatInt(seed, 10),
				"scale":   scale.String(),
			}
		}
		if merged {
			st, err := swarm.MergeStats(per[i])
			if err != nil {
				return err
			}
			recs = append(recs, record{labels("seeds", strconv.Itoa(*seeds), *seed), st})
			continue
		}
		for r, wseed := range exp.ReplicaSeeds(*seed, *seeds) {
			recs = append(recs, record{labels("replica", strconv.Itoa(r), wseed), per[i][r]})
		}
	}

	if !output.ReplacesHuman() {
		switch {
		case merged:
			fmt.Fprintf(stdout, "%-10s %-9s %6s %6s %7s %5s %14s %20s %10s %8s %12s\n",
				"bench", "sched", "cores", "taskq", "commitq", "seeds", "cycles", "cycles/seed", "tasks", "aborts", "flits")
			for _, r := range recs {
				st, sm := r.st, r.st.SeedSummary
				fmt.Fprintf(stdout, "%-10s %-9s %6s %6s %7s %5s %14d %14.0f±%-5.0f %10d %8d %12d\n",
					r.labels["bench"], r.labels["sched"], r.labels["cores"],
					r.labels["taskq"], r.labels["commitq"], r.labels["seeds"],
					st.Cycles, sm.Cycles.Mean, sm.Cycles.Stddev,
					st.CommittedTasks, st.AbortedAttempts, st.TotalTraffic())
			}
		case len(recs) == 1:
			printDetailed(stdout, cfgs[0].Point, cfgs[0].machine, *scaleName, *validate, recs[0].st)
		default:
			fmt.Fprintf(stdout, "%-10s %-9s %6s %6s %7s %4s %14s %10s %8s %8s %12s\n",
				"bench", "sched", "cores", "taskq", "commitq", "rep", "cycles", "tasks", "aborts", "spills", "flits")
			for _, r := range recs {
				st := r.st
				fmt.Fprintf(stdout, "%-10s %-9s %6s %6s %7s %4s %14d %10d %8d %8d %12d\n",
					r.labels["bench"], r.labels["sched"], r.labels["cores"],
					r.labels["taskq"], r.labels["commitq"], r.labels["replica"],
					st.Cycles, st.CommittedTasks, st.AbortedAttempts, st.SpilledTasks, st.TotalTraffic())
			}
		}
	}
	if !output.Enabled() {
		return nil
	}
	rs := metrics.NewResultSet(sweepFields...)
	if merged {
		rs = metrics.NewResultSet(mergedFields...)
		rs.Schema = metrics.SchemaVersionV2 // merged records carry SeedSummary
	}
	for _, r := range recs {
		rs.Append(r.labels, r.st.Snapshot())
	}
	return output.Write(stdout, rs)
}

// printDetailed reproduces the single-run report of point p on machine.
// Queue sizes are named only when -taskq or -commitq changed them.
func printDetailed(w io.Writer, p exp.Point, machine swarm.Config, scaleName string, validated bool, st *swarm.Stats) {
	cfg := machine.WithCores(p.Cores)
	fmt.Fprintf(w, "benchmark   %s (%s, hint pattern: %s)\n", p.Name, scaleName, bench.HintPattern(p.Name))
	fmt.Fprintf(w, "machine     %d cores, scheduler %v", cfg.Cores(), p.Kind)
	if def := swarm.ScaledConfig(); cfg.TaskQPerCore != def.TaskQPerCore || cfg.CommitQPerCore != def.CommitQPerCore {
		fmt.Fprintf(w, ", %d task-queue and %d commit-queue entries per core", cfg.TaskQPerCore, cfg.CommitQPerCore)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "makespan    %d cycles\n", st.Cycles)
	fmt.Fprintf(w, "tasks       %d committed, %d aborted attempts, %d squashed, %d spilled, %d stolen\n",
		st.CommittedTasks, st.AbortedAttempts, st.SquashedTasks, st.SpilledTasks, st.StolenTasks)
	b := st.Breakdown
	total := float64(b.Total())
	if total > 0 {
		fmt.Fprintf(w, "cycles      commit %.1f%%  abort %.1f%%  spill %.1f%%  stall %.1f%%  empty %.1f%%\n",
			100*float64(b.Commit)/total, 100*float64(b.Abort)/total, 100*float64(b.Spill)/total,
			100*float64(b.Stall)/total, 100*float64(b.Empty)/total)
	}
	fmt.Fprintf(w, "traffic     mem %d  abort %d  task %d  gvt %d flits\n",
		st.Traffic[0], st.Traffic[1], st.Traffic[2], st.Traffic[3])
	fmt.Fprintf(w, "caches      L1 %d  L2 %d  L3 %d hits, %d mem accesses\n",
		st.Cache.L1Hits, st.Cache.L2Hits, st.Cache.L3Hits, st.Cache.MemAccesses)
	fmt.Fprintf(w, "balance     load-imbalance %.2fx over %d tiles\n", st.LoadImbalance(), len(st.Tiles))
	if st.Classification != nil {
		cl := st.Classification
		fmt.Fprintf(w, "accesses    multiRO %.3f  singleRO %.3f  multiRW %.3f  singleRW %.3f  args %.3f\n",
			cl.MultiHintRO, cl.SingleHintRO, cl.MultiHintRW, cl.SingleHintRW, cl.Arguments)
	}
	if validated {
		fmt.Fprintln(w, "validation  OK (matches serial reference)")
	}
}
