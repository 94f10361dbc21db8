package sim

import (
	"strings"
	"testing"

	"swarmhints/internal/sched"
	"swarmhints/internal/task"
)

// TestSquashWhileSpilled: a parent aborts while its child descriptor sits in
// the spill buffer; the child must be discarded, not resurrected.
func TestSquashWhileSpilled(t *testing.T) {
	cfg := testCfg(4, sched.Random)
	cfg.TaskQPerCore = 8
	cfg.CommitQPerCore = 4
	p := NewProgram()
	flag := p.Mem.AllocWords(1)
	sum := p.Mem.AllocWords(1)
	leaf := p.Register("leaf", func(c *Ctx) {
		c.Write(sum, c.Read(sum)+1)
	})
	// spawner reads flag; if an earlier task later flips flag, spawner
	// aborts and respawns a different number of children.
	spawner := p.Register("spawner", func(c *Ctx) {
		n := c.Read(flag) // 0 first time, 2 after writer runs
		for i := uint64(0); i < 40+n; i++ {
			c.Enqueue(leaf, c.TS()+1+i, i, i)
		}
	})
	writer := p.Register("writer", func(c *Ctx) {
		c.Compute(400) // ensure spawner likely runs first speculatively
		c.Write(flag, 2)
	})
	p2 := []Root{
		{Fn: writer, TS: 0, HintKind: task.HintInt, Hint: 1},
		{Fn: spawner, TS: 1, HintKind: task.HintInt, Hint: 2},
	}
	st, err := Run(p, p2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.Mem.Load(sum); got != 42 {
		t.Fatalf("sum = %d, want 42 (spawner must re-create children after abort)", got)
	}
	if st.CommittedTasks != 44 {
		t.Fatalf("committed = %d, want 44", st.CommittedTasks)
	}
}

// TestRefillDrainsSpills: with tiny queues and a huge root burst, spilled
// tasks must all come back and commit.
func TestRefillDrainsSpills(t *testing.T) {
	cfg := testCfg(4, sched.Hints)
	cfg.TaskQPerCore = 4
	cfg.CommitQPerCore = 2
	p, roots, ctr := counterProgram(300, false)
	st, err := Run(p, roots, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Mem.Load(ctr) != 300 {
		t.Fatalf("counter = %d", p.Mem.Load(ctr))
	}
	if st.SpilledTasks == 0 {
		t.Fatal("expected spills with 4-entry queues")
	}
}

// TestForwardingStallSerializesChains: a chain of dependent increments
// cannot finish faster than the sum of its links, even with many cores.
func TestForwardingStallSerializesChains(t *testing.T) {
	const n = 60
	p, roots, _ := counterProgram(n, false)
	cfg := testCfg(16, sched.Random)
	st, err := Run(p, roots, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Each link costs at least baseTaskCycles; wall-clock must reflect the
	// chain, not collapse to a couple of task durations.
	if st.Cycles < uint64(n)*baseTaskCycles {
		t.Fatalf("chain of %d dependent tasks finished in %d cycles: forwarding stalls not applied", n, st.Cycles)
	}
}

// TestLBIdleProxyRuns: the Sec. VI-A ablation scheduler completes and
// reconfigures.
func TestLBIdleProxyRuns(t *testing.T) {
	p, roots, _ := chainProgram(150)
	cfg := testCfg(16, sched.LBIdleProxy)
	cfg.LBInterval = 2_000
	st, err := Run(p, roots, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if st.CommittedTasks != 150 {
		t.Fatalf("committed %d", st.CommittedTasks)
	}
}

// TestGVTRoundsCounted: the arbiter must run roughly makespan/interval
// rounds and account GVT traffic on multi-tile machines.
func TestGVTRoundsCounted(t *testing.T) {
	p, roots, _ := chainProgram(120)
	st, err := Run(p, roots, testCfg(16, sched.Random))
	if err != nil {
		t.Fatal(err)
	}
	want := st.Cycles / 200
	if st.GVTRounds < want/2 || st.GVTRounds > want+2 {
		t.Fatalf("GVT rounds = %d for %d cycles (interval 200)", st.GVTRounds, st.Cycles)
	}
}

// TestDumpState renders diagnostics without panicking mid-run.
func TestDumpState(t *testing.T) {
	p, roots, _ := counterProgram(50, false)
	e := newEngine(p, testCfg(4, sched.Random))
	for _, r := range roots {
		e.enqueue(nil, 0, r.Fn, r.TS, r.HintKind, r.Hint, r.Args...)
	}
	s := e.dumpState()
	if !strings.Contains(s, "tile 0") || !strings.Contains(s, "earliestIdle") {
		t.Fatalf("dumpState output unexpected:\n%s", s)
	}
}

// TestSerializationPreventsConcurrentSameHint: with one tile and tasks that
// record concurrent execution through overlapping windows, same-hint tasks
// must never overlap under Hints.
func TestSerializationPreventsConcurrentSameHint(t *testing.T) {
	p := NewProgram()
	a := p.Mem.AllocWords(2)
	fn := p.Register("bump", func(c *Ctx) {
		c.Compute(100)
		c.Write(a, c.Read(a)+1)
	})
	var roots []Root
	for i := uint64(0); i < 30; i++ {
		roots = append(roots, Root{Fn: fn, TS: i, HintKind: task.HintInt, Hint: 99})
	}
	cfg := testCfg(4, sched.Hints) // one tile, 4 cores
	st, err := Run(p, roots, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Serialized same-hint tasks never conflict, so zero aborts.
	if st.AbortedAttempts != 0 {
		t.Fatalf("same-hint serialization failed: %d aborts", st.AbortedAttempts)
	}
	// And the makespan reflects the serial chain (30 x >=100 cycles).
	if st.Cycles < 3000 {
		t.Fatalf("makespan %d too short for a serialized 30x100-cycle chain", st.Cycles)
	}
}

// TestRandomSchedulerAbortsOnSameData is the counterpart: without hint
// serialization the same workload on many tiles mispeculates.
func TestRandomSchedulerAbortsOnSameData(t *testing.T) {
	p := NewProgram()
	a := p.Mem.AllocWords(2)
	fn := p.Register("bump", func(c *Ctx) {
		c.Compute(100)
		c.Write(a, c.Read(a)+1)
	})
	var roots []Root
	for i := uint64(0); i < 30; i++ {
		roots = append(roots, Root{Fn: fn, TS: i, HintKind: task.HintInt, Hint: 99})
	}
	st, err := Run(p, roots, testCfg(16, sched.Random))
	if err != nil {
		t.Fatal(err)
	}
	if st.AbortedAttempts == 0 {
		t.Fatal("randomly scattered conflicting tasks should mispeculate")
	}
	if got := p.Mem.Load(a); got != 30 {
		t.Fatalf("result %d, want 30 regardless of aborts", got)
	}
}
