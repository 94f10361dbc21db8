// Command experiments regenerates the paper's tables and figures (-list
// prints the per-experiment index, exp.Registry). Each experiment prints
// the same rows or series the paper reports, computed on the scaled
// synthetic inputs.
//
// Every experiment primes its full configuration grid through the parallel
// sweep runner (internal/runner), so independent simulations fan out across
// host cores; -parallel bounds the worker count. Results are byte-identical
// for every -parallel value, including 1.
//
// -format json|csv additionally exports every simulation point the selected
// experiments executed — per-tile and aggregate statistics labeled by
// (bench, sched, cores, profile, scale, seed), schema swarmhints.metrics.v1,
// sorted by configuration so the bytes are identical for every -parallel
// value. Without -out the export replaces the human tables on stdout; with
// -out FILE the tables keep stdout and the export goes to the file.
//
// Usage:
//
//	experiments -exp fig4 -scale small
//	experiments -exp all -scale tiny          # quick smoke of everything
//	experiments -exp all -parallel 8          # bound the worker pool
//	experiments -exp fig4 -format json        # machine-readable export
//	experiments -exp fig5 -format csv -out fig5.csv
//	experiments -exp all -store results.store # persist runs; later invocations reuse them
//	experiments -exp fig2 -seeds 8            # 8 seed replicas per point, merged with error bars
//	experiments -list
//
// -seeds N (> 1) runs every configuration point as N seed replicas
// (workload seeds derived from -seed) and caches/exports the merged record:
// counters summed, derived metrics recomputed, cross-seed dispersion in the
// snapshot's seedSummary block (schema swarmhints.metrics.v2). Every
// replica is one job on the sweep runner's pool and replicas merge in fixed
// seed order, so output is byte-identical for every -parallel value. With
// -store, each replica persists under its ordinary per-seed key, so
// re-running with more seeds only executes the new ones.
//
// -store DIR adds the persistent result store (internal/store) under the
// in-memory cache: every simulation point is written through on first
// computation and served from disk on any later invocation — including by
// cmd/swarmsim and swarmd pointed at the same directory, which share the
// same canonical configuration keys. Exports stay byte-identical whether a
// point was computed or store-served.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"swarmhints/internal/cliutil"
	"swarmhints/internal/exp"
)

func main() {
	var (
		expID     = flag.String("exp", "all", "experiment id (see -list) or 'all'")
		scaleName = flag.String("scale", "small", "input scale: tiny|small|full")
		seed      = flag.Int64("seed", 7, "workload seed (base of the derived replica seeds when -seeds > 1)")
		seeds     = flag.Int("seeds", 1, "seed replicas per configuration point, merged into one record with cross-seed error bars (schema v2)")
		cores     = flag.String("cores", "", "comma-separated core sweep override, e.g. 1,16,256")
		parallel  = flag.Int("parallel", 0, "simulation runs in flight at once (0 = GOMAXPROCS)")
		format    = flag.String("format", "", "machine-readable output: json|csv (default: human tables)")
		outFile   = flag.String("out", "", "write structured results to FILE (keeps human tables on stdout)")
		storeDir  = flag.String("store", "", "persistent result-store directory shared with swarmd/swarmsim (empty = no store)")
		storeMax  = flag.String("store-max-bytes", "", "result-store size cap, e.g. 512m or 2g (empty/0 = unbounded)")
		list      = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range exp.Registry {
			fmt.Printf("%-8s %s\n", e.ID, e.Title)
		}
		return
	}

	output, err := cliutil.ParseOutput(*format, *outFile)
	if err != nil {
		fatal(err)
	}
	scale, err := cliutil.ParseScale(*scaleName)
	if err != nil {
		fatal(err)
	}
	opt := exp.DefaultOptions(scale)
	opt.Seed = *seed
	opt.Seeds = *seeds
	opt.Parallel = *parallel
	opt.Store, err = cliutil.OpenStore(*storeDir, *storeMax)
	if err != nil {
		fatal(err)
	}
	if opt.Store != nil {
		c := opt.Store.Counters()
		fmt.Fprintf(os.Stderr, "experiments: result store %s (%d records, %d bytes)\n",
			opt.Store.Dir(), c.Records, c.Bytes)
	}
	if *cores != "" {
		opt.Cores, err = cliutil.ParseInts(*cores, "-cores")
		if err != nil {
			fatal(err)
		}
		if len(opt.Cores) == 0 {
			fatal(fmt.Errorf("-cores lists no core counts"))
		}
		if err := cliutil.CheckCores(opt.Cores); err != nil {
			fatal(err)
		}
	}
	runner := exp.NewRunner(opt)

	var todo []exp.Experiment
	if *expID == "all" {
		todo = exp.Registry
	} else {
		e, err := exp.Find(*expID)
		if err != nil {
			fatal(err)
		}
		todo = []exp.Experiment{e}
	}
	workers := opt.Parallel
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// To stderr so stdout stays byte-identical across -parallel values.
	fmt.Fprintf(os.Stderr, "experiments: sweep runner with %d parallel workers\n", workers)

	// Interrupt cancels the sweep at the next job boundary instead of
	// killing half-written output.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// With the structured export on stdout, the human tables are discarded
	// (the experiments still run identically — the export reads their runs).
	tableOut := io.Writer(os.Stdout)
	if output.ReplacesHuman() {
		tableOut = io.Discard
	}
	for _, e := range todo {
		start := time.Now()
		fmt.Fprintf(tableOut, "=== %s: %s ===\n", e.ID, e.Title)
		if err := e.Run(ctx, runner, tableOut); err != nil {
			fatal(fmt.Errorf("%s: %w", e.ID, err))
		}
		// Wall-clock to stderr: stdout carries only experiment data, so
		// sweeps at different -parallel values diff clean.
		fmt.Fprintf(os.Stderr, "--- %s done in %v ---\n", e.ID, time.Since(start).Round(time.Millisecond))
		fmt.Fprintln(tableOut)
	}
	if output.Enabled() {
		if err := output.Write(os.Stdout, runner.Export()); err != nil {
			fatal(err)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "experiments:", err)
	os.Exit(1)
}
