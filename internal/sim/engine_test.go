package sim

import (
	"runtime"
	"testing"
	"time"

	"swarmhints/internal/sched"
	"swarmhints/internal/task"
)

func testCfg(cores int, k sched.Kind) Config {
	cfg := ScaledConfig().WithCores(cores)
	cfg.Scheduler = k
	cfg.MaxCycles = 500_000_000
	return cfg
}

// counterProgram: n tasks, each incrementing a shared counter. With equal
// timestamps this is TM-style unordered speculation; with distinct
// timestamps it is ordered. Either way the final count must be exactly n.
func counterProgram(n int, sameTS bool) (*Program, []Root, uint64) {
	p := NewProgram()
	ctr := p.Mem.AllocWords(1)
	var fn task.FnID
	fn = p.Register("inc", func(c *Ctx) {
		c.Write(ctr, c.Read(ctr)+1)
	})
	roots := make([]Root, n)
	for i := 0; i < n; i++ {
		ts := uint64(0)
		if !sameTS {
			ts = uint64(i)
		}
		roots[i] = Root{Fn: fn, TS: ts, HintKind: task.HintInt, Hint: ctr}
	}
	return p, roots, ctr
}

// chainProgram: task i (ts=i) reads slot[i-1] and writes slot[i]=prev+1.
// All tasks are enqueued up front, so most run out of order and must be
// corrected by cascaded aborts. slot[n-1] must equal n.
func chainProgram(n int) (*Program, []Root, uint64) {
	p := NewProgram()
	slots := p.Mem.AllocWords(uint64(n))
	fn := p.Register("link", func(c *Ctx) {
		i := c.Arg(0)
		prev := uint64(0)
		if i > 0 {
			prev = c.Read(slots + (i-1)*8)
		}
		c.Write(slots+i*8, prev+1)
	})
	roots := make([]Root, n)
	for i := 0; i < n; i++ {
		roots[i] = Root{Fn: fn, TS: uint64(i), HintKind: task.HintInt,
			Hint: uint64(i), Args: []uint64{uint64(i)}}
	}
	return p, roots, slots
}

// treeProgram: a root task recursively enqueues children forming a binary
// tree of the given depth; every leaf increments its own private slot
// (disjoint leaves keep the workload embarrassingly parallel). Exercises
// parent-child creation, SAMEHINT, and fan-out. The leaf count is
// 2^depth; slot i holds leaf i's increment.
func treeProgram(depth int) (*Program, []Root, uint64) {
	p := NewProgram()
	leaves := uint64(1) << uint(depth)
	slots := p.Mem.AllocWords(leaves)
	var fn task.FnID
	fn = p.Register("node", func(c *Ctx) {
		d, idx := c.Arg(0), c.Arg(1)
		if d == 0 {
			addr := slots + idx*8
			c.Write(addr, c.Read(addr)+1)
			return
		}
		c.EnqueueSameHint(fn, c.TS()+1, d-1, idx*2)
		c.Enqueue(fn, c.TS()+1, c.Hint()+d, d-1, idx*2+1)
	})
	return p, []Root{{Fn: fn, TS: 0, HintKind: task.HintInt, Hint: 1,
		Args: []uint64{uint64(depth), 0}}}, slots
}

func allKinds() []sched.Kind {
	return []sched.Kind{sched.Random, sched.Stealing, sched.Hints, sched.LBHints}
}

func TestCounterSerializableOrdered(t *testing.T) {
	for _, k := range allKinds() {
		for _, cores := range []int{1, 4, 16} {
			p, roots, ctr := counterProgram(150, false)
			st, err := Run(p, roots, testCfg(cores, k))
			if err != nil {
				t.Fatalf("%v/%dc: %v", k, cores, err)
			}
			if got := p.Mem.Load(ctr); got != 150 {
				t.Fatalf("%v/%dc: counter = %d, want 150", k, cores, got)
			}
			if st.CommittedTasks != 150 {
				t.Fatalf("%v/%dc: committed %d, want 150", k, cores, st.CommittedTasks)
			}
		}
	}
}

func TestCounterSerializableUnordered(t *testing.T) {
	for _, k := range allKinds() {
		p, roots, ctr := counterProgram(150, true)
		st, err := Run(p, roots, testCfg(16, k))
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if got := p.Mem.Load(ctr); got != 150 {
			t.Fatalf("%v: unordered counter = %d, want 150 (stats %s)", k, got, st)
		}
	}
}

func TestChainOrdering(t *testing.T) {
	const n = 120
	for _, k := range allKinds() {
		p, roots, slots := chainProgram(n)
		_, err := Run(p, roots, testCfg(16, k))
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		for i := 0; i < n; i++ {
			if got := p.Mem.Load(slots + uint64(i)*8); got != uint64(i+1) {
				t.Fatalf("%v: slot[%d] = %d, want %d", k, i, got, i+1)
			}
		}
	}
}

func TestChainAbortsOutOfOrderWork(t *testing.T) {
	// With many cores and all tasks available at once, most chain links run
	// before their predecessor and must abort at least once.
	p, roots, _ := chainProgram(120)
	st, err := Run(p, roots, testCfg(16, sched.Random))
	if err != nil {
		t.Fatal(err)
	}
	if st.AbortedAttempts == 0 {
		t.Fatal("out-of-order chain execution produced zero aborts")
	}
	if st.Breakdown.Abort == 0 {
		t.Fatal("aborted attempts charged no cycles")
	}
}

func TestTreeProgram(t *testing.T) {
	for _, k := range allKinds() {
		p, roots, slots := treeProgram(7)
		st, err := Run(p, roots, testCfg(16, k))
		if err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		var got uint64
		for i := uint64(0); i < 128; i++ {
			got += p.Mem.Load(slots + i*8)
		}
		if got != 128 {
			t.Fatalf("%v: leaves = %d, want 128", k, got)
		}
		if st.CommittedTasks != 255 {
			t.Fatalf("%v: committed %d, want 255", k, st.CommittedTasks)
		}
	}
}

func TestSingleCoreNoSpeculationWaste(t *testing.T) {
	p, roots, _ := counterProgram(100, false)
	st, err := Run(p, roots, testCfg(1, sched.Random))
	if err != nil {
		t.Fatal(err)
	}
	if st.AbortedAttempts != 0 {
		t.Fatalf("single core aborted %d tasks; dispatch is in order, conflicts impossible", st.AbortedAttempts)
	}
}

func TestSpillUnderQueuePressure(t *testing.T) {
	cfg := testCfg(4, sched.Random)
	cfg.TaskQPerCore = 8
	cfg.CommitQPerCore = 4
	p, roots, ctr := counterProgram(400, false)
	st, err := Run(p, roots, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Mem.Load(ctr) != 400 {
		t.Fatalf("counter = %d under queue pressure", p.Mem.Load(ctr))
	}
	if st.SpilledTasks == 0 {
		t.Fatal("tiny queues with 400 root tasks must spill")
	}
}

func TestDeterminism(t *testing.T) {
	run := func() string {
		p, roots, _ := chainProgram(100)
		st, err := Run(p, roots, testCfg(16, sched.Hints))
		if err != nil {
			t.Fatal(err)
		}
		return st.String()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("two identical runs diverged:\n%s\n%s", a, b)
	}
}

func TestBreakdownAccountsAllCycles(t *testing.T) {
	p, roots, _ := chainProgram(150)
	st, err := Run(p, roots, testCfg(16, sched.Random))
	if err != nil {
		t.Fatal(err)
	}
	total := float64(st.Breakdown.Total())
	budget := float64(uint64(st.Cores) * st.Cycles)
	if total < 0.85*budget || total > 1.15*budget+float64(st.Breakdown.Spill) {
		t.Fatalf("breakdown %.0f vs cores*cycles %.0f: attribution leak", total, budget)
	}
}

func TestTrafficAccounted(t *testing.T) {
	p, roots, _ := chainProgram(100)
	st, err := Run(p, roots, testCfg(16, sched.Random))
	if err != nil {
		t.Fatal(err)
	}
	if st.Traffic[0] == 0 {
		t.Fatal("no memory traffic on a multi-tile run")
	}
	if st.Traffic[2] == 0 {
		t.Fatal("no task traffic despite random remote enqueues")
	}
	if st.Traffic[3] == 0 {
		t.Fatal("no GVT traffic")
	}
}

func TestScaling(t *testing.T) {
	// A parallel tree workload must get meaningfully faster from 1 to 16
	// cores.
	times := map[int]uint64{}
	for _, cores := range []int{1, 16} {
		p, roots, _ := treeProgram(9)
		st, err := Run(p, roots, testCfg(cores, sched.Hints))
		if err != nil {
			t.Fatal(err)
		}
		times[cores] = st.Cycles
	}
	speedup := float64(times[1]) / float64(times[16])
	if speedup < 2 {
		t.Fatalf("16-core speedup only %.2fx on an embarrassingly parallel tree", speedup)
	}
}

func TestHintsReduceAbortsOnContention(t *testing.T) {
	// All tasks hammer one counter with the same hint: Hints serializes them
	// on one tile, Random scatters them. Hints must abort far less.
	aborts := map[sched.Kind]uint64{}
	for _, k := range []sched.Kind{sched.Random, sched.Hints} {
		p, roots, _ := counterProgram(200, false)
		st, err := Run(p, roots, testCfg(16, k))
		if err != nil {
			t.Fatal(err)
		}
		aborts[k] = st.AbortedAttempts
	}
	if aborts[sched.Hints] > aborts[sched.Random] {
		t.Fatalf("Hints aborted more than Random on single-hint contention: %d vs %d",
			aborts[sched.Hints], aborts[sched.Random])
	}
}

func TestNoHintAndSameHint(t *testing.T) {
	p := NewProgram()
	a := p.Mem.AllocWords(2)
	var leaf task.FnID
	leaf = p.Register("leaf", func(c *Ctx) {
		c.Write(a+8, c.Read(a+8)+1)
	})
	rootFn := p.Register("root", func(c *Ctx) {
		c.Write(a, 7)
		c.EnqueueSameHint(leaf, c.TS()+1)
		c.EnqueueNoHint(leaf, c.TS()+1)
	})
	st, err := Run(p, []Root{{Fn: rootFn, TS: 0, HintKind: task.HintNone}},
		testCfg(4, sched.Hints))
	if err != nil {
		t.Fatal(err)
	}
	if p.Mem.Load(a+8) != 2 || st.CommittedTasks != 3 {
		t.Fatalf("NOHINT/SAMEHINT program wrong: val=%d tasks=%d", p.Mem.Load(a+8), st.CommittedTasks)
	}
}

func TestChildTimestampClamped(t *testing.T) {
	p := NewProgram()
	a := p.Mem.AllocWords(1)
	var child task.FnID
	child = p.Register("child", func(c *Ctx) {
		if c.TS() < 10 {
			c.Write(a, 999) // must not happen: child TS clamps to parent's
		} else {
			c.Write(a, c.TS())
		}
	})
	rootFn := p.Register("root", func(c *Ctx) {
		c.Enqueue(child, 3 /* below parent's 10 */, 1)
	})
	_, err := Run(p, []Root{{Fn: rootFn, TS: 10, HintKind: task.HintInt, Hint: 1}},
		testCfg(1, sched.Hints))
	if err != nil {
		t.Fatal(err)
	}
	if p.Mem.Load(a) != 10 {
		t.Fatalf("child ran with ts %d, want clamp to 10", p.Mem.Load(a))
	}
}

func TestWatchdog(t *testing.T) {
	p, roots, _ := chainProgram(200)
	cfg := testCfg(4, sched.Random)
	cfg.MaxCycles = 50
	if _, err := Run(p, roots, cfg); err == nil {
		t.Fatal("watchdog did not fire")
	}
}

func TestProfileClassification(t *testing.T) {
	// Program with known structure: one word written once and read by every
	// task (read-only multi-hint), one word per task read+written by only
	// that task's hint (single-hint read-write).
	p := NewProgram()
	shared := p.Mem.AllocWords(1)
	p.Mem.StoreRaw(shared, 5)
	priv := p.Mem.AllocWords(64)
	fn := p.Register("t", func(c *Ctx) {
		i := c.Arg(0)
		v := c.Read(shared)
		// Many reads of private data to dominate, then a write.
		addr := priv + i*8
		for j := 0; j < 3; j++ {
			v += c.Read(addr)
		}
		c.Write(addr, v)
	})
	var roots []Root
	for i := uint64(0); i < 32; i++ {
		// One hint per private word; hints differ across tasks.
		roots = append(roots, Root{Fn: fn, TS: i, HintKind: task.HintInt,
			Hint: 100 + i, Args: []uint64{i}})
	}
	cfg := testCfg(4, sched.Hints)
	cfg.Profile = true
	st, err := Run(p, roots, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl := st.Classification
	if cl == nil {
		t.Fatal("profiling enabled but no classification produced")
	}
	if cl.SingleHintRW == 0 {
		t.Fatal("per-task private read-write data not classified single-hint RW")
	}
	if cl.MultiHintRO == 0 {
		t.Fatal("shared read-only word not classified multi-hint RO")
	}
	if cl.Arguments == 0 {
		t.Fatal("argument accesses not counted")
	}
	sum := cl.MultiHintRO + cl.SingleHintRO + cl.MultiHintRW + cl.SingleHintRW + cl.Arguments
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("classification fractions sum to %f", sum)
	}
}

func TestLBHintsRebalances(t *testing.T) {
	// Skewed load: 4 hot hints all hash wherever they hash; LBHints should
	// reconfigure at least once on a long enough run.
	p := NewProgram()
	ctrs := p.Mem.AllocWords(4)
	var fn task.FnID
	fn = p.Register("hot", func(c *Ctx) {
		h := c.Arg(0)
		c.Compute(200)
		c.Write(ctrs+h*8, c.Read(ctrs+h*8)+1)
		if c.Arg(1) > 0 {
			c.Enqueue(fn, c.TS()+1, h, h, c.Arg(1)-1)
		}
	})
	var roots []Root
	for h := uint64(0); h < 4; h++ {
		roots = append(roots, Root{Fn: fn, TS: 0, HintKind: task.HintInt,
			Hint: h, Args: []uint64{h, 400}})
	}
	cfg := testCfg(4, sched.LBHints)
	cfg.LBInterval = 10_000
	st, err := Run(p, roots, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.Reconfigs == 0 {
		t.Fatal("LBHints never reconfigured on a long skewed run")
	}
	for h := uint64(0); h < 4; h++ {
		if got := p.Mem.Load(ctrs + h*8); got != 401 {
			t.Fatalf("chain %d count = %d, want 401", h, got)
		}
	}
}

func TestStealingMovesWork(t *testing.T) {
	p, roots, _ := treeProgram(8)
	st, err := Run(p, roots, testCfg(16, sched.Stealing))
	if err != nil {
		t.Fatal(err)
	}
	if st.StolenTasks == 0 {
		t.Fatal("Stealing scheduler never stole despite local-only enqueues")
	}
}

func TestConfigWithCores(t *testing.T) {
	base := DefaultConfig()
	for _, tc := range []struct{ cores, k int }{{1, 1}, {4, 1}, {16, 2}, {64, 4}, {144, 6}, {256, 8}} {
		c := base.WithCores(tc.cores)
		if c.MeshK != tc.k {
			t.Fatalf("WithCores(%d).MeshK = %d, want %d", tc.cores, c.MeshK, tc.k)
		}
	}
	if DefaultConfig().WithCores(1).Cores() != 1 {
		t.Fatal("1-core config wrong")
	}
}

// runTracked runs a program and reports, through collected, when the
// engine's conflict index is garbage collected. The finalizer sits on the
// index rather than the Engine itself: the Engine is in a reference cycle
// through its per-core contexts, and the runtime never finalizes an object
// reachable from itself. Only the engine references its index, so the index
// is collected exactly when the engine is.
func runTracked(t *testing.T, p *Program, roots []Root, cfg Config) (*Stats, <-chan struct{}) {
	e := newEngine(p, cfg)
	collected := make(chan struct{})
	runtime.SetFinalizer(e.index, func(any) { close(collected) })
	for _, r := range roots {
		e.enqueue(nil, 0, r.Fn, r.TS, r.HintKind, r.Hint, r.Args...)
	}
	st, err := e.run()
	if err != nil {
		t.Fatal(err)
	}
	return st, collected
}

// TestStatsDoNotPinEngine: a caller holding only a run's *Stats (a result
// cache, say) must not keep the engine alive — its queues, conflict table,
// and cache arrays are megabytes per run.
func TestStatsDoNotPinEngine(t *testing.T) {
	p, roots, _ := counterProgram(64, false)
	st, collected := runTracked(t, p, roots, testCfg(4, sched.Hints))
	for i := 0; i < 20; i++ {
		runtime.GC()
		select {
		case <-collected:
			if st.CommittedTasks != 64 {
				t.Fatalf("committed %d tasks, want 64", st.CommittedTasks)
			}
			return
		case <-time.After(10 * time.Millisecond):
		}
	}
	t.Fatal("engine still reachable from its returned Stats")
}
