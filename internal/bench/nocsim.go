package bench

import (
	"fmt"

	"swarmhints/internal/workload"
	"swarmhints/swarm"
)

// nocsim models the detailed NoC simulator of Table I (GARNET-derived):
// each task simulates an event at a router component — packet arrival into
// a virtual-channel buffer, route computation + switch allocation, and link
// traversal to the next hop under X-Y routing. Router state lives in
// simulated memory at virtual-channel granularity (as in a real router,
// different VCs' events touch different state words, so only same-VC events
// serialize). Hints are router IDs: components of the same router
// communicate constantly, so the paper keeps them on one tile (Sec. III-C,
// "Object IDs").

// nocVCs is the number of virtual channels per router.
const nocVCs = 4

// nocFields is the number of state words per VC: buffer-occupancy
// accumulator, switch-allocator grants, forwarded count, delivered count.
const nocFields = 4

func nocScaleParams(scale Scale) (k, rate int, horizon uint64) {
	switch scale {
	case Tiny:
		return 4, 2, 300
	case Small:
		// The paper's 16x16 mesh under sustained tornado load: a dense
		// event frontier keeps all routers concurrently active.
		return 16, 4, 400
	default:
		return 16, 6, 1000
	}
}

// BuildNocsim builds the mesh NoC simulation with tornado traffic.
func BuildNocsim(scale Scale, seed int64) *Instance {
	k, rate, horizon := nocScaleParams(scale)
	packets := workload.Tornado(k, rate, horizon, seed)

	p := swarm.NewProgram()
	n := k * k
	state := p.Mem.AllocWords(uint64(n) * nocVCs * nocFields)
	word := func(r, vc, f uint64) uint64 {
		return state + ((r*nocVCs+vc)*nocFields+f)*8
	}

	nextHop := func(r, dst uint64) uint64 {
		x, y := r%uint64(k), r/uint64(k)
		dx, dy := dst%uint64(k), dst/uint64(k)
		switch { // X-Y dimension-order routing
		case x < dx:
			return y*uint64(k) + x + 1
		case x > dx:
			return y*uint64(k) + x - 1
		case y < dy:
			return (y+1)*uint64(k) + x
		default:
			return (y-1)*uint64(k) + x
		}
	}

	var arriveFn, routeFn, departFn swarm.FnID
	departFn = p.Register("nocLinkTraversal", func(c *swarm.Ctx) {
		r, dst, pkt := c.Arg(0), c.Arg(1), c.Arg(2)
		vc := pkt % nocVCs
		c.Write(word(r, vc, 2), c.Read(word(r, vc, 2))+1)
		next := nextHop(r, dst)
		c.Enqueue(arriveFn, c.TS()+1, next, next, dst, pkt)
	})
	routeFn = p.Register("nocSwitchAlloc", func(c *swarm.Ctx) {
		r, dst, pkt := c.Arg(0), c.Arg(1), c.Arg(2)
		vc := pkt % nocVCs
		c.Write(word(r, vc, 1), c.Read(word(r, vc, 1))+1)
		if r == dst {
			c.Write(word(r, vc, 3), c.Read(word(r, vc, 3))+1)
			return
		}
		c.EnqueueSameHint(departFn, c.TS()+1, r, dst, pkt)
	})
	arriveFn = p.Register("nocBufferWrite", func(c *swarm.Ctx) {
		r, dst, pkt := c.Arg(0), c.Arg(1), c.Arg(2)
		vc := pkt % nocVCs
		c.Write(word(r, vc, 0), c.Read(word(r, vc, 0))+pkt)
		c.EnqueueSameHint(routeFn, c.TS()+1, r, dst, pkt)
	})
	for i, pk := range packets {
		p.EnqueueRoot(arriveFn, pk.TS, uint64(pk.Src), uint64(pk.Src), uint64(pk.Dst), uint64(i))
	}

	want := refNoc(k, packets)
	return &Instance{
		Name: "nocsim", Prog: p, Ordered: true,
		Validate: func() error {
			for i, w := range want {
				if got := p.Mem.Load(state + uint64(i)*8); got != w {
					return fmt.Errorf("nocsim: state word %d = %d, want %d", i, got, w)
				}
			}
			return nil
		},
	}
}

// refNoc computes the reference state by walking each packet's
// deterministic X-Y path; all task effects are commutative accumulations,
// so path-walking gives the exact final state.
func refNoc(k int, packets []workload.Packet) []uint64 {
	n := k * k
	out := make([]uint64, n*nocVCs*nocFields)
	word := func(r, vc, f int) int { return (r*nocVCs+vc)*nocFields + f }
	for i, pk := range packets {
		r, dst := int(pk.Src), int(pk.Dst)
		vc := i % nocVCs
		for {
			out[word(r, vc, 0)] += uint64(i) // buffer write accumulator
			out[word(r, vc, 1)]++            // switch grant
			if r == dst {
				out[word(r, vc, 3)]++ // delivered
				break
			}
			out[word(r, vc, 2)]++ // forwarded
			x, y := r%k, r/k
			dx, dy := dst%k, dst/k
			switch {
			case x < dx:
				r = y*k + x + 1
			case x > dx:
				r = y*k + x - 1
			case y < dy:
				r = (y+1)*k + x
			default:
				r = (y-1)*k + x
			}
		}
	}
	return out
}
