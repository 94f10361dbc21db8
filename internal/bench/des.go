package bench

import (
	"fmt"

	"swarmhints/internal/workload"
	"swarmhints/swarm"
)

// desState is the simulated-memory layout of the circuit: one word per gate
// input pin and one per gate output. Netlist structure (kinds, fanout,
// delays) is static and stays host-side, like program text.
type desState struct {
	circ *workload.Circuit
	in0  uint64
	in1  uint64
	out  uint64
}

func (s *desState) in(gate uint64, pin uint64) uint64 {
	if pin == 0 {
		return s.in0 + gate*8
	}
	return s.in1 + gate*8
}

func desScaleParams(scale Scale) (width, rows, toggles int) {
	switch scale {
	case Tiny:
		return 8, 2, 150
	case Small:
		return 32, 6, 700
	default:
		return 32, 32, 6000
	}
}

// BuildDES is the discrete-event digital-circuit simulator of Listing 1 on
// a carry-save-adder array (csaArray32 substitute). Each task simulates one
// input toggle at one gate: it reads the driving gate's output, updates the
// pin, re-evaluates the gate, and if the output changed enqueues toggle
// events for every fanout input at ts+delay. Hints are gate IDs (Table I).
func BuildDES(scale Scale, seed int64) *Instance {
	width, rows, toggles := desScaleParams(scale)
	circ := workload.CSAArray(width, rows)
	wf := workload.CSAWaveforms(circ, toggles, seed)

	p := swarm.NewProgram()
	st := &desState{
		circ: circ,
		in0:  p.Mem.AllocWords(uint64(circ.N())),
		in1:  p.Mem.AllocWords(uint64(circ.N())),
		out:  p.Mem.AllocWords(uint64(circ.N())),
	}

	// eval re-evaluates gate g after a pin update and propagates a changed
	// output to the fanout (shared by both task types).
	var toggleFn swarm.FnID
	eval := func(c *swarm.Ctx, g uint64) {
		a := c.Read(st.in(g, 0))
		b := c.Read(st.in(g, 1))
		newOut := circ.Kind[g].Eval(a, b)
		if newOut != c.Read(st.out+g*8) {
			c.Write(st.out+g*8, newOut)
			for _, pin := range circ.Fanout[g] {
				tg := uint64(pin.Gate)
				c.Enqueue(toggleFn, c.TS()+uint64(circ.Delay[g]), tg, tg, uint64(pin.Pin), g)
			}
		}
	}
	toggleFn = p.Register("desToggle", func(c *swarm.Ctx) {
		g, pin, src := c.Arg(0), c.Arg(1), c.Arg(2)
		val := c.Read(st.out + src*8)
		c.Write(st.in(g, pin), val)
		eval(c, g)
	})
	inputFn := p.Register("desInput", func(c *swarm.Ctx) {
		g, val := c.Arg(0), c.Arg(1)
		c.Write(st.in(g, 0), val)
		eval(c, g)
	})
	for _, w := range wf {
		p.EnqueueRoot(inputFn, w.TS, uint64(w.Gate), uint64(w.Gate), w.Val)
	}

	want := refDES(circ, wf)
	return &Instance{
		Name: "des", Prog: p, Ordered: true,
		Validate: func() error {
			for g := 0; g < circ.N(); g++ {
				if got := p.Mem.Load(st.out + uint64(g)*8); got != want[g] {
					return fmt.Errorf("des: gate %d output %d, want %d", g, got, want[g])
				}
			}
			return nil
		},
	}
}

// refDES is the serial reference: a classic event-driven simulation with
// the exact semantics of the task bodies, processed in (ts, seq) order.
// Equal-timestamp events commute in final state (they write distinct pins
// and re-evaluate from current pin values), so the speculative execution
// must match this reference bit for bit.
func refDES(circ *workload.Circuit, wf []workload.Waveform) []uint64 {
	n := circ.N()
	in0 := make([]uint64, n)
	in1 := make([]uint64, n)
	out := make([]uint64, n)

	type ev struct {
		ts        uint64
		seq       uint64
		gate, pin uint64
		src       int64 // -1 = external, with val in the val field
		val       uint64
	}
	var heap []ev
	var seq uint64
	less := func(a, b ev) bool {
		if a.ts != b.ts {
			return a.ts < b.ts
		}
		return a.seq < b.seq
	}
	push := func(e ev) {
		seq++
		e.seq = seq
		heap = append(heap, e)
		i := len(heap) - 1
		for i > 0 {
			p := (i - 1) / 2
			if !less(heap[i], heap[p]) {
				break
			}
			heap[p], heap[i] = heap[i], heap[p]
			i = p
		}
	}
	pop := func() ev {
		top := heap[0]
		last := len(heap) - 1
		heap[0] = heap[last]
		heap = heap[:last]
		i := 0
		for {
			l, r, s := 2*i+1, 2*i+2, i
			if l < len(heap) && less(heap[l], heap[s]) {
				s = l
			}
			if r < len(heap) && less(heap[r], heap[s]) {
				s = r
			}
			if s == i {
				break
			}
			heap[i], heap[s] = heap[s], heap[i]
			i = s
		}
		return top
	}
	for _, w := range wf {
		push(ev{ts: w.TS, gate: uint64(w.Gate), src: -1, val: w.Val})
	}
	for len(heap) > 0 {
		e := pop()
		g := e.gate
		val := e.val
		if e.src >= 0 {
			val = out[e.src]
		}
		if e.pin == 0 {
			in0[g] = val
		} else {
			in1[g] = val
		}
		newOut := circ.Kind[g].Eval(in0[g], in1[g])
		if newOut != out[g] {
			out[g] = newOut
			for _, pin := range circ.Fanout[g] {
				push(ev{ts: e.ts + uint64(circ.Delay[g]), gate: uint64(pin.Gate), pin: uint64(pin.Pin), src: int64(g)})
			}
		}
	}
	return out
}
