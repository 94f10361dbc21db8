package cache

import (
	"fmt"
	"math/rand"
	"testing"

	"swarmhints/internal/flat"
	"swarmhints/internal/hashutil"
	"swarmhints/internal/mem"
	"swarmhints/internal/metrics"
	"swarmhints/internal/noc"
)

// refArray is the reference set-associative array: it rehashes the line
// with SplitMix64 and takes the set with a modulo on every operation.
type refArray struct {
	sets  int
	ways  int
	tags  []uint64
	dirty []bool
	tick  []uint64
	clock uint64
}

func newRefArray(p Params) *refArray {
	a := newArray(p)
	return &refArray{sets: a.sets, ways: a.ways, tags: a.tags, dirty: a.dirty, tick: a.tick}
}

func (a *refArray) set(line uint64) int {
	return int(hashutil.SplitMix64(line/mem.LineSize) % uint64(a.sets))
}

func (a *refArray) lookup(line uint64) int {
	base := a.set(line) * a.ways
	for w := 0; w < a.ways; w++ {
		if a.tags[base+w] == line {
			return base + w
		}
	}
	return -1
}

func (a *refArray) touch(idx int, write bool) {
	a.clock++
	a.tick[idx] = a.clock
	if write {
		a.dirty[idx] = true
	}
}

func (a *refArray) insert(line uint64, write bool) (uint64, bool) {
	base := a.set(line) * a.ways
	vi := base
	for w := 0; w < a.ways; w++ {
		i := base + w
		if a.tags[i] == 0 {
			vi = i
			break
		}
		if a.tick[i] < a.tick[vi] {
			vi = i
		}
	}
	victim, victimDirty := a.tags[vi], a.dirty[vi]
	a.tags[vi] = line
	a.dirty[vi] = write
	a.clock++
	a.tick[vi] = a.clock
	return victim, victimDirty
}

func (a *refArray) invalidate(line uint64) (present, dirty bool) {
	if idx := a.lookup(line); idx >= 0 {
		present, dirty = true, a.dirty[idx]
		a.tags[idx] = 0
		a.dirty[idx] = false
		a.tick[idx] = 0
	}
	return present, dirty
}

// refHierarchy is the reference hierarchy: the same protocol as Hierarchy,
// with every array lookup rehashing its line, every directory query a
// table probe (no memo), and the L1 fill re-looking the line up.
type refHierarchy struct {
	cfg      Config
	coresPer int
	mesh     *noc.Mesh
	rec      *metrics.Recorder
	l1       []*refArray
	l2       []*refArray
	l3       []*refArray
	dir      flat.Table[dirEntry]
	dirPool  mem.Pool[dirEntry]
}

func newRefHierarchy(cfg Config, mesh *noc.Mesh, coresPerTile int) *refHierarchy {
	tiles := mesh.Tiles()
	h := &refHierarchy{cfg: cfg, coresPer: coresPerTile, mesh: mesh, rec: mesh.Recorder()}
	for i := 0; i < tiles*coresPerTile; i++ {
		h.l1 = append(h.l1, newRefArray(cfg.L1))
	}
	for i := 0; i < tiles; i++ {
		h.l2 = append(h.l2, newRefArray(cfg.L2))
		h.l3 = append(h.l3, newRefArray(cfg.L3Bank))
	}
	return h
}

func (h *refHierarchy) homeBank(line uint64) int {
	return int(hashutil.SplitMix64(line/mem.LineSize+0x9e37) % uint64(len(h.l3)))
}

func (h *refHierarchy) Access(core, tile int, addr uint64, write bool, class noc.MsgClass) int {
	line := mem.LineAddr(addr)
	if line == 0 {
		line = mem.LineSize
	}
	l1 := h.l1[core]
	lat := h.cfg.L1Latency
	if idx := l1.lookup(line); idx >= 0 {
		if !write {
			l1.touch(idx, false)
			h.rec.Tile(tile).L1Hits++
			return lat
		}
		if e := h.dir.Get(line); e == nil || (e.sharers == 1<<uint(tile) && e.owner <= int8(tile)) {
			l1.touch(idx, true)
			if i2 := h.l2[tile].lookup(line); i2 >= 0 {
				h.l2[tile].touch(i2, true)
			}
			h.rec.Tile(tile).L1Hits++
			h.setOwner(line, tile)
			return lat
		}
	}
	lat += h.cfg.L2Latency
	l2 := h.l2[tile]
	l2Idx := l2.lookup(line)
	needsCoherence := write && h.hasRemoteCopies(line, tile)
	if l2Idx >= 0 && !needsCoherence {
		l2.touch(l2Idx, write)
		h.rec.Tile(tile).L2Hits++
		h.fillL1(core, line, write)
		if write {
			h.setOwner(line, tile)
		}
		return lat
	}
	home := h.homeBank(line)
	lat += h.mesh.Send(class, tile, home, 8)
	lat += h.cfg.L3Latency
	e := h.dirEntryFor(line)
	if write {
		worst := 0
		for t := 0; t < len(h.l2); t++ {
			if t == tile || e.sharers&(1<<uint(t)) == 0 {
				continue
			}
			h.invalidateTile(t, line, class)
			if d := h.mesh.Latency(home, t); d > worst {
				worst = d
			}
		}
		if worst > 0 {
			lat += 2 * worst
		}
		e.sharers = 1 << uint(tile)
		e.owner = int8(tile)
	} else if e.owner >= 0 && int(e.owner) != tile {
		owner := int(e.owner)
		lat += h.mesh.Send(class, home, owner, 8)
		lat += h.cfg.L2Latency
		lat += h.mesh.Send(class, owner, tile, mem.LineSize)
		h.rec.Tile(owner).RemoteForwards++
		h.rec.Tile(owner).Writebacks++
		e.owner = -1
		e.sharers |= 1 << uint(tile)
	} else {
		e.sharers |= 1 << uint(tile)
	}
	l3 := h.l3[home]
	if idx := l3.lookup(line); idx >= 0 {
		l3.touch(idx, write)
		h.rec.Tile(home).L3Hits++
	} else {
		lat += h.mesh.SendToEdge(class, home, 8)
		lat += h.cfg.MemLatency
		lat += h.mesh.SendToEdge(class, home, mem.LineSize)
		h.rec.Tile(home).MemAccesses++
		if victim, vDirty := l3.insert(line, write); victim != 0 {
			h.evictL3(victim, home, vDirty, class)
		}
	}
	if class == noc.MsgMem || class == noc.MsgAbort {
		lat += h.mesh.Send(class, home, tile, mem.LineSize)
	}
	if l2Idx < 0 {
		if victim, vDirty := l2.insert(line, write); victim != 0 {
			h.evictL2(victim, tile, vDirty, class)
		}
	} else {
		l2.touch(l2Idx, write)
	}
	h.fillL1(core, line, write)
	return lat
}

func (h *refHierarchy) dirEntryFor(line uint64) *dirEntry {
	e := h.dir.Get(line)
	if e == nil {
		e = h.dirPool.Get()
		e.sharers, e.owner = 0, -1
		h.dir.Put(line, e)
	}
	return e
}

func (h *refHierarchy) hasRemoteCopies(line uint64, tile int) bool {
	e := h.dir.Get(line)
	if e == nil {
		return false
	}
	return e.sharers&^(1<<uint(tile)) != 0 || (e.owner >= 0 && int(e.owner) != tile)
}

func (h *refHierarchy) setOwner(line uint64, tile int) {
	e := h.dirEntryFor(line)
	e.owner = int8(tile)
	e.sharers |= 1 << uint(tile)
}

func (h *refHierarchy) fillL1(core int, line uint64, write bool) {
	l1 := h.l1[core]
	if idx := l1.lookup(line); idx >= 0 {
		l1.touch(idx, write)
		return
	}
	l1.insert(line, write)
}

func (h *refHierarchy) invalidateTile(tile int, line uint64, class noc.MsgClass) {
	h.rec.Tile(tile).Invalidations++
	if present, dirty := h.l2[tile].invalidate(line); present && dirty {
		h.rec.Tile(tile).Writebacks++
		h.mesh.Send(class, tile, h.homeBank(line), mem.LineSize)
	}
	base := tile * h.coresPer
	for c := 0; c < h.coresPer; c++ {
		h.l1[base+c].invalidate(line)
	}
}

func (h *refHierarchy) evictL2(victim uint64, tile int, dirty bool, class noc.MsgClass) {
	base := tile * h.coresPer
	for c := 0; c < h.coresPer; c++ {
		h.l1[base+c].invalidate(victim)
	}
	if e := h.dir.Get(victim); e != nil {
		e.sharers &^= 1 << uint(tile)
		if e.owner == int8(tile) {
			e.owner = -1
		}
	}
	if dirty {
		h.rec.Tile(tile).Writebacks++
		h.mesh.Send(class, tile, h.homeBank(victim), mem.LineSize)
	}
}

func (h *refHierarchy) evictL3(victim uint64, home int, dirty bool, class noc.MsgClass) {
	if e := h.dir.Delete(victim); e != nil {
		for t := 0; t < len(h.l2); t++ {
			if e.sharers&(1<<uint(t)) != 0 {
				h.invalidateTile(t, victim, class)
			}
		}
		h.dirPool.Put(e)
	}
	if dirty {
		h.rec.Tile(home).Writebacks++
		h.mesh.SendToEdge(class, home, mem.LineSize)
	}
}

// diffPair drives a Hierarchy and a refHierarchy, each on its own mesh and
// recorder, with the same accesses.
type diffPair struct {
	h            *Hierarchy
	r            *refHierarchy
	rec, refRec  *metrics.Recorder
	cores, tiles int
}

func newDiffPair(cfg Config, k, coresPerTile int) *diffPair {
	mesh, refMesh := noc.New(k, nil), noc.New(k, nil)
	return &diffPair{
		h: New(cfg, mesh, coresPerTile), r: newRefHierarchy(cfg, refMesh, coresPerTile),
		rec: mesh.Recorder(), refRec: refMesh.Recorder(),
		cores: k * k * coresPerTile, tiles: k * k,
	}
}

// access applies one access to both sides and reports the first
// divergence in latency, or "".
func (p *diffPair) access(core int, addr uint64, write bool, class noc.MsgClass) string {
	tile := core / (p.cores / p.tiles)
	got := p.h.Access(core, tile, addr, write, class)
	want := p.r.Access(core, tile, addr, write, class)
	if got != want {
		return fmt.Sprintf("Access(core %d, %#x, write=%v) latency %d, reference %d", core, addr, write, got, want)
	}
	return ""
}

// counters reports the first per-tile recorder counter that diverges, or "".
func (p *diffPair) counters() string {
	got, want := p.rec.Snapshot(), p.refRec.Snapshot()
	for i := range want {
		if got[i] != want[i] {
			return fmt.Sprintf("tile %d counters %+v, reference %+v", i, got[i], want[i])
		}
	}
	return ""
}

// TestHierarchyDifferential drives seeded random read/write streams over
// several cores and tiles through the hierarchy and the reference model
// (rehash and modulo per lookup, no directory memo, fresh L1 lookup on
// fill), and requires identical latencies on every access and identical
// per-tile recorder counters (cache events and NoC flits). The configs
// span the shipped power-of-two geometries and non-power-of-two set counts
// (48-set L2 and L3 banks), which take the modulo path; the small ones
// evict from L3 constantly, so directory entries churn through the pool.
func TestHierarchyDifferential(t *testing.T) {
	small := Config{
		L1: Params{SizeKB: 1, Ways: 2}, L2: Params{SizeKB: 4, Ways: 4}, L3Bank: Params{SizeKB: 8, Ways: 4},
		L1Latency: 2, L2Latency: 7, L3Latency: 9, MemLatency: 120,
	}
	odd := small
	odd.L2 = Params{SizeKB: 24, Ways: 8}     // 48 sets
	odd.L3Bank = Params{SizeKB: 12, Ways: 4} // 48 sets
	odd.L1 = Params{SizeKB: 3, Ways: 4}      // 12 sets
	cases := []struct {
		name      string
		cfg       Config
		k, perT   int
		addrWords int
	}{
		{"scaled-4tiles", ScaledConfig(), 2, 2, 1 << 15},
		{"scaled-16tiles", ScaledConfig(), 4, 4, 1 << 16},
		{"default-4tiles", DefaultConfig(), 2, 4, 1 << 16},
		{"small-pow2", small, 2, 2, 1 << 13},
		{"non-pow2-sets", odd, 2, 3, 1 << 13},
		{"non-pow2-1tile", odd, 1, 4, 1 << 13},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if c.cfg.L2.Lines()/c.cfg.L2.Ways == 48 && newArray(c.cfg.L2).pow2 {
				t.Fatal("48-set array classified as power of two")
			}
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed))
				p := newDiffPair(c.cfg, c.k, c.perT)
				hot := uint64(64) // a small shared hot set drives coherence traffic
				for i := 0; i < 40_000; i++ {
					w := uint64(rng.Intn(c.addrWords))
					if rng.Intn(3) == 0 {
						w %= hot
					}
					addr := w * mem.WordSize
					class := noc.MsgMem
					if rng.Intn(16) == 0 {
						class = noc.MsgAbort
					}
					write := rng.Intn(3) == 0
					core := rng.Intn(p.cores)
					if msg := p.access(core, addr, write, class); msg != "" {
						t.Fatalf("seed %d access %d: %s", seed, i, msg)
					}
					// Read-modify-write of the same word, the engine's
					// most common pair, back to back on one core.
					if rng.Intn(4) == 0 {
						if msg := p.access(core, addr, true, class); msg != "" {
							t.Fatalf("seed %d access %d (rmw): %s", seed, i, msg)
						}
					}
					if i%1024 == 0 {
						if msg := p.counters(); msg != "" {
							t.Fatalf("seed %d access %d: %s", seed, i, msg)
						}
					}
				}
				if msg := p.counters(); msg != "" {
					t.Fatalf("seed %d: %s", seed, msg)
				}
			}
		})
	}
}

// TestDirectoryLookupAfterEviction pins the directory memo's one
// invalidation point: a line whose directory entry goes back to the pool on
// an L3 eviction must read as untracked afterwards, even when the pool has
// already handed that entry to a new line.
func TestDirectoryLookupAfterEviction(t *testing.T) {
	cfg := ScaledConfig()
	mesh := noc.New(2, nil)
	h := New(cfg, mesh, 1)
	const a, c = uint64(0x4000), uint64(0x8000)
	h.Access(0, 0, a, true, noc.MsgMem)
	ea := h.dirGet(a) // the memo now holds a
	if ea == nil {
		t.Fatal("accessed line has no directory entry")
	}
	h.evictL3(a, h.homeBank(a), true, noc.MsgMem)
	if got := h.dirGet(a); got != nil {
		t.Fatal("evicted line still resolves to a directory entry")
	}
	if ec := h.dirEntryFor(c); ec != ea {
		t.Fatal("pool did not hand the evicted entry to the next line (test premise)")
	}
	if h.dirGet(a) != nil || h.dir.Get(a) != nil {
		t.Fatal("evicted line resolves to the entry now owned by another line")
	}
	if h.hasRemoteCopies(a, 1) {
		t.Fatal("evicted line reports remote copies")
	}

	// The same story through Access only: a 1-set L3 bank on one tile
	// evicts the oldest line on every 17th new line, and the freed entry
	// serves the next line. Both models must agree throughout.
	tiny := cfg
	tiny.L1 = Params{SizeKB: 1, Ways: 16}
	tiny.L2 = Params{SizeKB: 1, Ways: 16}
	tiny.L3Bank = Params{SizeKB: 1, Ways: 16}
	p := newDiffPair(tiny, 1, 2)
	for round := 0; round < 4; round++ {
		for i := 0; i < 40; i++ {
			addr := uint64(0x10000 + i*mem.LineSize)
			for _, write := range []bool{false, true} {
				if msg := p.access(i%2, addr, write, noc.MsgMem); msg != "" {
					t.Fatalf("round %d line %d: %s", round, i, msg)
				}
			}
			if msg := p.access((i+1)%2, uint64(0x10000), false, noc.MsgMem); msg != "" {
				t.Fatalf("round %d line %d (re-read first line): %s", round, i, msg)
			}
		}
	}
	if msg := p.counters(); msg != "" {
		t.Fatal(msg)
	}
	if p.h.dir.Len() != p.r.dir.Len() {
		t.Fatalf("directory holds %d lines, reference %d", p.h.dir.Len(), p.r.dir.Len())
	}
}
