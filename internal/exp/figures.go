package exp

import (
	"context"
	"fmt"
	"io"

	"swarmhints/internal/bench"
	"swarmhints/swarm"
)

var rshKinds = []swarm.SchedKind{swarm.Random, swarm.Stealing, swarm.Hints}
var rshlKinds = []swarm.SchedKind{swarm.Random, swarm.Stealing, swarm.Hints, swarm.LBHints}

// plusCores returns the core sweep with extra single points appended;
// Prime deduplicates, so overlap is harmless.
func plusCores(base []int, extra ...int) []int {
	out := make([]int, 0, len(base)+len(extra))
	out = append(out, base...)
	return append(out, extra...)
}

// Table1 reproduces Table I: per-benchmark 1-core run-time, committed
// tasks, task-function count, and hint pattern.
func Table1(ctx context.Context, r *Runner, w io.Writer) error {
	if err := r.PrimeGrid(ctx, bench.Names(), []swarm.SchedKind{swarm.Random}, []int{1}, false); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-8s %14s %10s %6s  %s\n", "bench", "1c cycles", "tasks", "funcs", "hint pattern")
	for _, name := range bench.Names() {
		inst, err := bench.Build(name, r.opt.Scale, r.opt.Seed)
		if err != nil {
			return err
		}
		st, err := r.Run(ctx, name, swarm.Random, 1, false)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-8s %14d %10d %6d  %s\n",
			name, st.Cycles, st.CommittedTasks, inst.Prog.NumFns(), bench.HintPattern(name))
	}
	return nil
}

// Fig2 reproduces Fig. 2: des speedups for all four schedulers across the
// core sweep (a) and the cycle breakdown at max cores relative to Random (b).
func Fig2(ctx context.Context, r *Runner, w io.Writer) error {
	if err := r.PrimeGrid(ctx, []string{"des"}, rshlKinds, plusCores(r.opt.Cores, 1, r.opt.maxCores()), false); err != nil {
		return err
	}
	fmt.Fprintf(w, "(a) des speedup over 1-core\n%8s", "cores")
	for _, k := range rshlKinds {
		fmt.Fprintf(w, " %10v", k)
	}
	fmt.Fprintln(w)
	for _, cores := range r.opt.Cores {
		fmt.Fprintf(w, "%8d", cores)
		for _, k := range rshlKinds {
			s, err := r.Speedup(ctx, "des", k, cores)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, " %10.1f", s)
		}
		fmt.Fprintln(w)
	}
	mc := r.opt.maxCores()
	ref, err := r.Run(ctx, "des", swarm.Random, mc, false)
	if err != nil {
		return err
	}
	refTotal := float64(ref.Breakdown.Total())
	fmt.Fprintf(w, "(b) des cycle breakdown at %d cores (relative to Random)\n", mc)
	for _, k := range rshlKinds {
		st, err := r.Run(ctx, "des", k, mc, false)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10v %s\n", k, breakdownRow(st.Breakdown, refTotal))
	}
	return nil
}

// classificationRows prints the Fig. 3/6 stacked-bar data for a benchmark
// list, normalized to a baseline's total accesses (itself for Fig. 3).
func classificationRows(ctx context.Context, r *Runner, w io.Writer, names []string, normTo map[string]string) error {
	// Baselines appended in names order (not map order) so the prime grid —
	// and with it which failure FirstErr reports — is deterministic.
	all := append([]string{}, names...)
	for _, n := range names {
		if base, ok := normTo[n]; ok {
			all = append(all, base)
		}
	}
	if err := r.PrimeGrid(ctx, all, []swarm.SchedKind{swarm.Hints}, []int{4}, true); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-9s %9s %9s %9s %9s %9s %7s\n",
		"bench", "multiRO", "singleRO", "multiRW", "singleRW", "args", "height")
	for _, name := range names {
		st, err := r.Run(ctx, name, swarm.Hints, 4, true)
		if err != nil {
			return err
		}
		cl := st.Classification
		height := 1.0
		if base, ok := normTo[name]; ok && base != name {
			bst, err := r.Run(ctx, base, swarm.Hints, 4, true)
			if err != nil {
				return err
			}
			height = float64(cl.TotalAccesses) / float64(bst.Classification.TotalAccesses)
		}
		fmt.Fprintf(w, "%-9s %9.3f %9.3f %9.3f %9.3f %9.3f %7.2f\n", name,
			cl.MultiHintRO*height, cl.SingleHintRO*height, cl.MultiHintRW*height,
			cl.SingleHintRW*height, cl.Arguments*height, height)
	}
	return nil
}

// Fig3 reproduces Fig. 3: access classification for the nine CG benchmarks.
func Fig3(ctx context.Context, r *Runner, w io.Writer) error {
	return classificationRows(ctx, r, w, bench.Names(), nil)
}

// Fig4 reproduces Fig. 4: Random/Stealing/Hints speedups for all nine
// benchmarks across the core sweep.
func Fig4(ctx context.Context, r *Runner, w io.Writer) error {
	if err := r.PrimeGrid(ctx, bench.Names(), rshKinds, plusCores(r.opt.Cores, 1), false); err != nil {
		return err
	}
	for _, name := range bench.Names() {
		fmt.Fprintf(w, "%s\n%8s", name, "cores")
		for _, k := range rshKinds {
			fmt.Fprintf(w, " %10v", k)
		}
		fmt.Fprintln(w)
		for _, cores := range r.opt.Cores {
			fmt.Fprintf(w, "%8d", cores)
			for _, k := range rshKinds {
				s, err := r.Speedup(ctx, name, k, cores)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, " %10.1f", s)
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// Fig5 reproduces Fig. 5: cycle breakdown (a) and NoC traffic breakdown (b)
// at max cores for Random/Stealing/Hints, normalized to Random.
func Fig5(ctx context.Context, r *Runner, w io.Writer) error {
	return breakdownFigure(ctx, r, w, bench.Names(), rshKinds, nil)
}

func breakdownFigure(ctx context.Context, r *Runner, w io.Writer, names []string, kinds []swarm.SchedKind, normTo map[string]string) error {
	mc := r.opt.maxCores()
	// Baselines appended in names order (not map order) so the prime grid —
	// and with it which failure FirstErr reports — is deterministic.
	all := append([]string{}, names...)
	for _, n := range names {
		if base, ok := normTo[n]; ok {
			all = append(all, base)
		}
	}
	if err := r.PrimeGrid(ctx, all, append([]swarm.SchedKind{swarm.Random}, kinds...), []int{mc}, false); err != nil {
		return err
	}
	fmt.Fprintf(w, "(a) cycle breakdowns at %d cores (relative to Random)\n", mc)
	for _, name := range names {
		refName := name
		if n, ok := normTo[name]; ok {
			refName = n
		}
		ref, err := r.Run(ctx, refName, swarm.Random, mc, false)
		if err != nil {
			return err
		}
		refTotal := float64(ref.Breakdown.Total())
		for _, k := range kinds {
			st, err := r.Run(ctx, name, k, mc, false)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-9s %-10v %s\n", name, k, breakdownRow(st.Breakdown, refTotal))
		}
	}
	fmt.Fprintf(w, "(b) NoC traffic breakdowns at %d cores (relative to Random)\n", mc)
	for _, name := range names {
		refName := name
		if n, ok := normTo[name]; ok {
			refName = n
		}
		ref, err := r.Run(ctx, refName, swarm.Random, mc, false)
		if err != nil {
			return err
		}
		refTotal := sumTraffic(ref.Traffic)
		for _, k := range kinds {
			st, err := r.Run(ctx, name, k, mc, false)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-9s %-10v %s\n", name, k, trafficRow(st.Traffic, refTotal))
		}
	}
	return nil
}

// Fig6 reproduces Fig. 6: CG vs FG access classification, FG bars
// normalized to the CG version's total accesses.
func Fig6(ctx context.Context, r *Runner, w io.Writer) error {
	var names []string
	normTo := map[string]string{}
	for _, n := range bench.FGNames() {
		names = append(names, n, n+"-fg")
		normTo[n+"-fg"] = n
	}
	return classificationRows(ctx, r, w, names, normTo)
}

// Fig7 reproduces Fig. 7: FG and CG speedups under the three schedulers,
// relative to the CG version at 1 core.
func Fig7(ctx context.Context, r *Runner, w io.Writer) error {
	var names []string
	for _, n := range bench.FGNames() {
		names = append(names, n, n+"-fg")
	}
	if err := r.PrimeGrid(ctx, names, rshKinds, plusCores(r.opt.Cores, 1), false); err != nil {
		return err
	}
	for _, name := range bench.FGNames() {
		fmt.Fprintf(w, "%s\n%8s", name, "cores")
		for _, variant := range []string{"", "-fg"} {
			for _, k := range rshKinds {
				fmt.Fprintf(w, " %12s", fmt.Sprintf("%s%v", map[string]string{"": "CG-", "-fg": "FG-"}[variant], k))
			}
		}
		fmt.Fprintln(w)
		base, err := r.Run(ctx, name, swarm.Random, 1, false) // CG 1-core baseline
		if err != nil {
			return err
		}
		for _, cores := range r.opt.Cores {
			fmt.Fprintf(w, "%8d", cores)
			for _, variant := range []string{"", "-fg"} {
				for _, k := range rshKinds {
					st, err := r.Run(ctx, name+variant, k, cores, false)
					if err != nil {
						return err
					}
					fmt.Fprintf(w, " %12.1f", float64(base.Cycles)/float64(st.Cycles))
				}
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// Fig8 reproduces Fig. 8: FG cycle and traffic breakdowns at max cores,
// normalized to the CG version under Random.
func Fig8(ctx context.Context, r *Runner, w io.Writer) error {
	var names []string
	normTo := map[string]string{}
	for _, n := range bench.FGNames() {
		names = append(names, n+"-fg")
		normTo[n+"-fg"] = n
	}
	return breakdownFigure(ctx, r, w, names, rshKinds, normTo)
}

// bestVariant returns the better-scaling variant (CG or FG) for a scheduler
// at max cores, as Fig. 10 reports the best-performing version per scheme.
func (r *Runner) bestVariant(ctx context.Context, name string, k swarm.SchedKind) (string, error) {
	hasFG := false
	for _, n := range bench.FGNames() {
		if n == name {
			hasFG = true
		}
	}
	if !hasFG {
		return name, nil
	}
	mc := r.opt.maxCores()
	cg, err := r.Run(ctx, name, k, mc, false)
	if err != nil {
		return "", err
	}
	fg, err := r.Run(ctx, name+"-fg", k, mc, false)
	if err != nil {
		return "", err
	}
	if fg.Cycles < cg.Cycles {
		return name + "-fg", nil
	}
	return name, nil
}

// Fig10 reproduces Fig. 10: all four schedulers on all nine benchmarks,
// using the best-performing grain per scheme.
func Fig10(ctx context.Context, r *Runner, w io.Writer) error {
	// Phase 1: the max-core probes bestVariant compares, plus baselines.
	probeNames := append([]string{}, bench.Names()...)
	for _, n := range bench.FGNames() {
		probeNames = append(probeNames, n+"-fg")
	}
	if err := r.PrimeGrid(ctx, probeNames, rshlKinds, []int{r.opt.maxCores()}, false); err != nil {
		return err
	}
	if err := r.PrimeGrid(ctx, bench.Names(), []swarm.SchedKind{swarm.Random}, []int{1}, false); err != nil {
		return err
	}
	// Phase 2: now that the winning grain per (benchmark, scheme) is known,
	// prime exactly the sweep points the table below will format.
	var points []Point
	for _, name := range bench.Names() {
		for _, k := range rshlKinds {
			variant, err := r.bestVariant(ctx, name, k)
			if err != nil {
				return err
			}
			for _, cores := range r.opt.Cores {
				points = append(points, Point{Name: variant, Kind: k, Cores: cores})
			}
		}
	}
	if err := r.Prime(ctx, points); err != nil {
		return err
	}
	for _, name := range bench.Names() {
		fmt.Fprintf(w, "%s\n%8s", name, "cores")
		for _, k := range rshlKinds {
			fmt.Fprintf(w, " %10v", k)
		}
		fmt.Fprintln(w)
		base, err := r.Run(ctx, name, swarm.Random, 1, false)
		if err != nil {
			return err
		}
		for _, cores := range r.opt.Cores {
			fmt.Fprintf(w, "%8d", cores)
			for _, k := range rshlKinds {
				variant, err := r.bestVariant(ctx, name, k)
				if err != nil {
					return err
				}
				st, err := r.Run(ctx, variant, k, cores, false)
				if err != nil {
					return err
				}
				fmt.Fprintf(w, " %10.1f", float64(base.Cycles)/float64(st.Cycles))
			}
			fmt.Fprintln(w)
		}
	}
	return nil
}

// Fig11 reproduces Fig. 11: cycle breakdowns for des, nocsim, silo, kmeans
// under all four schedulers at max cores.
func Fig11(ctx context.Context, r *Runner, w io.Writer) error {
	mc := r.opt.maxCores()
	if err := r.PrimeGrid(ctx, []string{"des", "nocsim", "silo", "kmeans"}, rshlKinds, []int{mc}, false); err != nil {
		return err
	}
	fmt.Fprintf(w, "cycle breakdowns at %d cores (relative to Random)\n", mc)
	for _, name := range []string{"des", "nocsim", "silo", "kmeans"} {
		ref, err := r.Run(ctx, name, swarm.Random, mc, false)
		if err != nil {
			return err
		}
		refTotal := float64(ref.Breakdown.Total())
		for _, k := range rshlKinds {
			st, err := r.Run(ctx, name, k, mc, false)
			if err != nil {
				return err
			}
			fmt.Fprintf(w, "%-9s %-10v %s\n", name, k, breakdownRow(st.Breakdown, refTotal))
		}
	}
	return nil
}

// LBProxy reproduces the Sec. VI-A ablation: balancing committed cycles
// (LBHints) versus balancing idle-task counts (the worse proxy).
func LBProxy(ctx context.Context, r *Runner, w io.Writer) error {
	mc := r.opt.maxCores()
	var points []Point
	for _, name := range []string{"des", "nocsim", "silo", "kmeans"} {
		points = append(points, Point{Name: name, Kind: swarm.Random, Cores: 1})
		for _, k := range []swarm.SchedKind{swarm.Hints, swarm.LBHints, swarm.LBIdleProxy} {
			points = append(points, Point{Name: name, Kind: k, Cores: mc})
		}
	}
	if err := r.Prime(ctx, points); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-9s %12s %12s %12s  %s\n", "bench", "Hints", "LBHints", "LBIdleTasks", "best-signal")
	for _, name := range []string{"des", "nocsim", "silo", "kmeans"} {
		h, err := r.Speedup(ctx, name, swarm.Hints, mc)
		if err != nil {
			return err
		}
		lb, err := r.Speedup(ctx, name, swarm.LBHints, mc)
		if err != nil {
			return err
		}
		proxy, err := r.Speedup(ctx, name, swarm.LBIdleProxy, mc)
		if err != nil {
			return err
		}
		best := "committed-cycles"
		if proxy > lb {
			best = "idle-tasks"
		}
		fmt.Fprintf(w, "%-9s %12.1f %12.1f %12.1f  %s\n", name, h, lb, proxy, best)
	}
	return nil
}

// AblSerial is a design-choice ablation called out in DESIGN.md: spatial
// hints consist of (i) same-tile mapping and (ii) same-hint dispatch
// serialization (Sec. III-B). This experiment runs Hints beside
// HintsNoSerial, its mapping without the serialization, to separate the two
// mechanisms on the contention-heavy benchmarks.
func AblSerial(ctx context.Context, r *Runner, w io.Writer) error {
	mc := r.opt.maxCores()
	names := []string{"des", "silo", "kmeans", "genome"}
	if err := r.PrimeGrid(ctx, names, []swarm.SchedKind{swarm.Hints, swarm.HintsNoSerial}, []int{mc}, false); err != nil {
		return err
	}
	fmt.Fprintf(w, "%-9s %14s %14s %12s %12s\n", "bench", "Hints cycles", "NoSer cycles", "Hints aborts", "NoSer aborts")
	for _, name := range names {
		h, err := r.Run(ctx, name, swarm.Hints, mc, false)
		if err != nil {
			return err
		}
		ns, err := r.Run(ctx, name, swarm.HintsNoSerial, mc, false)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-9s %14d %14d %12d %12d\n",
			name, h.Cycles, ns.Cycles, h.AbortedAttempts, ns.AbortedAttempts)
	}
	return nil
}

// Summary reproduces the aggregate Sec. VI-B numbers: gmean speedups for
// Random, Hints, Hints+FG, LBHints at max cores, plus the wasted-work and
// traffic reduction factors from the abstract.
func Summary(ctx context.Context, r *Runner, w io.Writer) error {
	mc := r.opt.maxCores()
	// Probe grains at max cores, then prime the baselines the speedups use.
	var fgNames []string
	for _, n := range bench.FGNames() {
		fgNames = append(fgNames, n+"-fg")
	}
	var points []Point
	for _, n := range bench.Names() {
		points = append(points,
			Point{Name: n, Kind: swarm.Random, Cores: 1},
			Point{Name: n, Kind: swarm.Random, Cores: mc},
			Point{Name: n, Kind: swarm.Hints, Cores: mc},
			Point{Name: n, Kind: swarm.LBHints, Cores: mc})
	}
	for _, n := range fgNames {
		points = append(points,
			Point{Name: n, Kind: swarm.Random, Cores: 1},
			Point{Name: n, Kind: swarm.Hints, Cores: mc},
			Point{Name: n, Kind: swarm.LBHints, Cores: mc})
	}
	if err := r.Prime(ctx, points); err != nil {
		return err
	}
	var sR, sH, sHF, sLB []float64
	var abortR, abortH, trafR, trafH float64
	for _, name := range bench.Names() {
		v, err := r.Speedup(ctx, name, swarm.Random, mc)
		if err != nil {
			return err
		}
		sR = append(sR, v)
		v, err = r.Speedup(ctx, name, swarm.Hints, mc)
		if err != nil {
			return err
		}
		sH = append(sH, v)
		variant, err := r.bestVariant(ctx, name, swarm.Hints)
		if err != nil {
			return err
		}
		v, err = r.Speedup(ctx, variant, swarm.Hints, mc)
		if err != nil {
			return err
		}
		sHF = append(sHF, v)
		variantLB, err := r.bestVariant(ctx, name, swarm.LBHints)
		if err != nil {
			return err
		}
		v, err = r.Speedup(ctx, variantLB, swarm.LBHints, mc)
		if err != nil {
			return err
		}
		sLB = append(sLB, v)

		rst, err := r.Run(ctx, name, swarm.Random, mc, false)
		if err != nil {
			return err
		}
		hst, err := r.Run(ctx, variant, swarm.Hints, mc, false)
		if err != nil {
			return err
		}
		abortR += float64(rst.Breakdown.Abort)
		abortH += float64(hst.Breakdown.Abort)
		trafR += sumTraffic(rst.Traffic)
		trafH += sumTraffic(hst.Traffic)
	}
	fmt.Fprintf(w, "gmean speedup at %d cores:\n", mc)
	fmt.Fprintf(w, "  Random    %8.1fx\n", gmean(sR))
	fmt.Fprintf(w, "  Hints     %8.1fx\n", gmean(sH))
	fmt.Fprintf(w, "  Hints+FG  %8.1fx\n", gmean(sHF))
	fmt.Fprintf(w, "  LBHints   %8.1fx\n", gmean(sLB))
	fmt.Fprintf(w, "Hints/Random gmean ratio: %.2fx (paper: 3.3x)\n", gmean(sHF)/gmean(sR))
	if abortH > 0 {
		fmt.Fprintf(w, "wasted-work reduction (aborted cycles, Random/Hints): %.1fx (paper: 6.4x)\n", abortR/abortH)
	}
	fmt.Fprintf(w, "traffic reduction (Random/Hints): %.1fx (paper: 3.5x)\n", trafR/trafH)
	return nil
}
