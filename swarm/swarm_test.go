package swarm_test

import (
	"testing"

	"swarmhints/swarm"
)

func TestQuickstartCounter(t *testing.T) {
	p := swarm.NewProgram()
	counter := p.Mem.AllocWords(1)
	inc := p.Register("inc", func(c *swarm.Ctx) {
		c.Write(counter, c.Read(counter)+1)
	})
	for i := uint64(0); i < 50; i++ {
		p.EnqueueRoot(inc, i, counter)
	}
	cfg := swarm.ScaledConfig().WithCores(16)
	cfg.Scheduler = swarm.Hints
	st, err := p.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.Mem.Load(counter) != 50 {
		t.Fatalf("counter = %d, want 50", p.Mem.Load(counter))
	}
	if st.CommittedTasks != 50 {
		t.Fatalf("committed = %d, want 50", st.CommittedTasks)
	}
}

func TestRootKinds(t *testing.T) {
	p := swarm.NewProgram()
	a := p.Mem.AllocWords(1)
	fn := p.Register("w", func(c *swarm.Ctx) { c.Write(a, c.Read(a)+1) })
	p.EnqueueRoot(fn, 0, a)
	p.EnqueueRootNoHint(fn, 1)
	if p.Roots() != 2 {
		t.Fatalf("roots = %d", p.Roots())
	}
	if _, err := p.Run(swarm.ScaledConfig().WithCores(1)); err != nil {
		t.Fatal(err)
	}
	if p.Mem.Load(a) != 2 {
		t.Fatal("both root kinds must run")
	}
}

func TestAllSchedulersExposed(t *testing.T) {
	for _, k := range []swarm.SchedKind{swarm.Random, swarm.Stealing, swarm.Hints, swarm.LBHints, swarm.LBIdleProxy, swarm.HintsNoSerial} {
		p := swarm.NewProgram()
		a := p.Mem.AllocWords(1)
		fn := p.Register("w", func(c *swarm.Ctx) { c.Write(a, c.Read(a)+1) })
		for i := uint64(0); i < 20; i++ {
			p.EnqueueRoot(fn, i, a)
		}
		cfg := swarm.ScaledConfig().WithCores(4)
		cfg.Scheduler = k
		if _, err := p.Run(cfg); err != nil {
			t.Fatalf("%v: %v", k, err)
		}
		if p.Mem.Load(a) != 20 {
			t.Fatalf("%v: result %d", k, p.Mem.Load(a))
		}
	}
}
