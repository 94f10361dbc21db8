// Package cache models the three-level cache hierarchy of the simulated
// Swarm chip (Table II): per-core L1s, a per-tile shared L2, and a fully
// shared static-NUCA L3 with one bank per tile, all inclusive, with 64 B
// lines, MESI-style directory coherence, and LRU replacement. Accesses
// return their latency and inject memory traffic into the NoC model.
package cache

import (
	"swarmhints/internal/flat"
	"swarmhints/internal/hashutil"
	"swarmhints/internal/mem"
	"swarmhints/internal/metrics"
	"swarmhints/internal/noc"
)

// Params sizes one cache level.
type Params struct {
	SizeKB int // total capacity in kilobytes
	Ways   int // set associativity
}

// Lines returns the number of 64 B lines the cache holds.
func (p Params) Lines() int { return p.SizeKB * 1024 / mem.LineSize }

// Config sizes the whole hierarchy and its latencies.
type Config struct {
	L1         Params
	L2         Params
	L3Bank     Params // one bank per tile
	L1Latency  int
	L2Latency  int
	L3Latency  int // bank access latency, NoC hops extra
	MemLatency int
}

// DefaultConfig mirrors Table II of the paper.
func DefaultConfig() Config {
	return Config{
		L1:         Params{SizeKB: 16, Ways: 8},
		L2:         Params{SizeKB: 256, Ways: 8},
		L3Bank:     Params{SizeKB: 1024, Ways: 16},
		L1Latency:  2,
		L2Latency:  7,
		L3Latency:  9,
		MemLatency: 120,
	}
}

// ScaledConfig shrinks capacities for the scaled-down workloads used in
// tests and quick experiments, keeping the same latencies and shape.
func ScaledConfig() Config {
	c := DefaultConfig()
	c.L1 = Params{SizeKB: 4, Ways: 4}
	c.L2 = Params{SizeKB: 32, Ways: 8}
	c.L3Bank = Params{SizeKB: 128, Ways: 16}
	return c
}

// array is one set-associative LRU cache array.
type array struct {
	sets  int
	ways  int
	mask  uint64 // sets-1 when sets is a power of two
	pow2  bool
	tags  []uint64 // sets*ways line addresses, 0 = invalid
	dirty []bool
	tick  []uint64 // LRU timestamps
	clock uint64
}

func newArray(p Params) *array {
	lines := p.Lines()
	if lines < p.Ways {
		lines = p.Ways
	}
	sets := lines / p.Ways
	if sets < 1 {
		sets = 1
	}
	n := sets * p.Ways
	return &array{
		sets: sets, ways: p.Ways,
		mask: uint64(sets - 1), pow2: sets&(sets-1) == 0,
		tags: make([]uint64, n), dirty: make([]bool, n), tick: make([]uint64, n),
	}
}

// lineHash is the set-index hash of line, shared by every array the line
// touches: an access computes it once and passes it down.
func lineHash(line uint64) uint64 { return hashutil.SplitMix64(line / mem.LineSize) }

// set maps a line hash to its set. Power-of-two set counts (every shipped
// config) take the low bits with a mask, which is the same set as the
// modulo; other counts keep the divide.
func (a *array) set(hash uint64) int {
	if a.pow2 {
		return int(hash & a.mask)
	}
	return int(hash % uint64(a.sets))
}

// lookup returns the way index of line (whose lineHash is hash), or -1.
func (a *array) lookup(line, hash uint64) int {
	base := a.set(hash) * a.ways
	tags := a.tags[base : base+a.ways]
	for w, tag := range tags {
		if tag == line {
			return base + w
		}
	}
	return -1
}

func (a *array) touch(idx int, write bool) {
	a.clock++
	a.tick[idx] = a.clock
	if write {
		a.dirty[idx] = true
	}
}

// insert installs line, returning the victim line address and whether it was
// dirty; victim is 0 when an invalid way was used.
func (a *array) insert(line, hash uint64, write bool) (victim uint64, victimDirty bool) {
	base := a.set(hash) * a.ways
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
	victim, victimDirty = a.tags[vi], a.dirty[vi]
	a.tags[vi] = line
	a.dirty[vi] = write
	a.clock++
	a.tick[vi] = a.clock
	return victim, victimDirty
}

// fillL1 installs line in an L1, or refreshes it when idx (the access's
// first lookup in this array) found it there. L1 victims are clean wrt L2
// (write-through to L2 model).
func (a *array) fillL1(idx int, line, hash uint64, write bool) {
	if idx >= 0 {
		a.touch(idx, write)
		return
	}
	a.insert(line, hash, write)
}

// invalidate drops line if present, reporting whether it was dirty.
func (a *array) invalidate(line, hash uint64) (present, dirty bool) {
	if idx := a.lookup(line, hash); idx >= 0 {
		present, dirty = true, a.dirty[idx]
		a.tags[idx] = 0
		a.dirty[idx] = false
		a.tick[idx] = 0
	}
	return present, dirty
}

// dirEntry is the in-cache directory state for one line: which tiles hold it
// in their L2 and whether one tile owns it modified.
type dirEntry struct {
	sharers uint64 // bitmap over tiles (<=64 tiles, Fig. 1)
	owner   int8   // owning tile when modified, else -1
}

// Stats aggregates hierarchy hit/miss counters chip-wide. The per-tile
// ground truth lives in the shared metrics.Recorder; Stats is the summed
// view kept for the engine's aggregate snapshot.
type Stats struct {
	L1Hits, L2Hits, L3Hits, MemAccesses uint64
	RemoteForwards, Invalidations       uint64
	Writebacks                          uint64
}

// Hierarchy is the full chip cache model.
type Hierarchy struct {
	cfg      Config
	coresPer int
	mesh     *noc.Mesh
	rec      *metrics.Recorder
	l1       []*array // per core
	l2       []*array // per tile
	l3       []*array // per tile (bank)

	// dir is the in-cache coherence directory, on a flat open-addressing
	// table with entry recycling instead of a runtime map — lines enter on
	// first sharing and leave on L3 eviction, churning constantly.
	dir     flat.Table[dirEntry]
	dirPool mem.Pool[dirEntry]

	// memoLine/memoEntry remember the last directory probe, including a
	// miss (memoEntry nil). An access consults the directory up to three
	// times (exclusivity check, remote-copy check, state update) and a
	// read-modify-write touches the same line twice in a row, so most
	// probes hit the memo. Entries are pooled pointers and table growth
	// moves slots, not entries, so the memo only goes stale when its line
	// leaves the directory — evictL3 resets it there. The zero value
	// records line 0, never tracked, as absent.
	memoLine  uint64
	memoEntry *dirEntry
}

// New builds the hierarchy for mesh.Tiles() tiles with coresPerTile cores.
// Cache events publish per tile into the mesh's recorder, so the whole
// memory system (caches + NoC) collects into one metrics.Recorder.
func New(cfg Config, mesh *noc.Mesh, coresPerTile int) *Hierarchy {
	tiles := mesh.Tiles()
	h := &Hierarchy{
		cfg:      cfg,
		coresPer: coresPerTile,
		mesh:     mesh,
		rec:      mesh.Recorder(),
		l1:       make([]*array, tiles*coresPerTile),
		l2:       make([]*array, tiles),
		l3:       make([]*array, tiles),
	}
	for i := range h.l1 {
		h.l1[i] = newArray(cfg.L1)
	}
	for i := range h.l2 {
		h.l2[i] = newArray(cfg.L2)
		h.l3[i] = newArray(cfg.L3Bank)
	}
	// The directory tracks up to every L3-resident line; pre-size to skip
	// most of the growth ladder, but cap the reservation — large default
	// configs would otherwise zero megabytes per engine even for tiny
	// workloads that touch a fraction of the capacity.
	reserve := tiles * cfg.L3Bank.Lines() / 2
	if reserve > 4096 {
		reserve = 4096
	}
	h.dir.Reserve(reserve)
	return h
}

// Stats returns the accumulated counters summed over tiles.
func (h *Hierarchy) Stats() Stats {
	return StatsFrom(h.rec.Aggregate())
}

// StatsFrom extracts the cache counters from an aggregated counter block.
func StatsFrom(agg metrics.TileCounters) Stats {
	return Stats{
		L1Hits: agg.L1Hits, L2Hits: agg.L2Hits, L3Hits: agg.L3Hits,
		MemAccesses:    agg.MemAccesses,
		RemoteForwards: agg.RemoteForwards,
		Invalidations:  agg.Invalidations,
		Writebacks:     agg.Writebacks,
	}
}

// homeBank returns the static-NUCA home tile of a line.
func (h *Hierarchy) homeBank(line uint64) int {
	return int(hashutil.SplitMix64(line/mem.LineSize+0x9e37) % uint64(len(h.l3)))
}

// Access simulates one word access by core (a global core id) on tile.
// write marks stores. class attributes the NoC traffic (mem vs. abort
// rollback). It returns the access latency in cycles.
func (h *Hierarchy) Access(core, tile int, addr uint64, write bool, class noc.MsgClass) int {
	line := mem.LineAddr(addr)
	if line == 0 {
		line = mem.LineSize // avoid the invalid-tag sentinel
	}
	hash := lineHash(line)
	l1 := h.l1[core]
	lat := h.cfg.L1Latency

	// l1Idx stays valid down to fillL1: between here and there the core's
	// L1 only loses lines other than this one (victims of L2/L3 inserts,
	// invalidations of remote tiles), and clearing a way never moves
	// another way's tag.
	l1Idx := l1.lookup(line, hash)
	if l1Idx >= 0 {
		// L1 hit. Writes still need exclusivity if other tiles share it.
		if !write {
			l1.touch(l1Idx, false)
			h.rec.Tile(tile).L1Hits++
			return lat
		}
		if e := h.dirGet(line); e == nil || (e.sharers == 1<<uint(tile) && e.owner <= int8(tile)) {
			l1.touch(l1Idx, true)
			l2 := h.l2[tile]
			if idx := l2.lookup(line, hash); idx >= 0 {
				l2.touch(idx, true)
			}
			h.rec.Tile(tile).L1Hits++
			h.setOwner(line, tile)
			return lat
		}
		// Upgrade miss: fall through to coherence path below.
	}

	lat += h.cfg.L2Latency
	l2 := h.l2[tile]
	l2Idx := l2.lookup(line, hash)
	needsCoherence := write && h.hasRemoteCopies(line, tile)

	if l2Idx >= 0 && !needsCoherence {
		l2.touch(l2Idx, write)
		h.rec.Tile(tile).L2Hits++
		l1.fillL1(l1Idx, line, hash, write)
		if write {
			h.setOwner(line, tile)
		}
		return lat
	}

	// L2 miss (or upgrade): go to the L3 home bank over the NoC.
	home := h.homeBank(line)
	lat += h.mesh.Send(class, tile, home, 8) // request
	lat += h.cfg.L3Latency

	e := h.dirEntryFor(line)

	if write {
		// Invalidate all remote copies; latency is bounded by the furthest
		// sharer round trip through the home node.
		worst := 0
		for t := 0; t < len(h.l2); t++ {
			if t == tile || e.sharers&(1<<uint(t)) == 0 {
				continue
			}
			h.invalidateTile(t, line, hash, home, class)
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
		// Dirty in a remote tile: forward, writeback, downgrade.
		owner := int(e.owner)
		lat += h.mesh.Send(class, home, owner, 8)
		lat += h.cfg.L2Latency
		lat += h.mesh.Send(class, owner, tile, mem.LineSize) // data forward
		h.rec.Tile(owner).RemoteForwards++
		h.rec.Tile(owner).Writebacks++
		e.owner = -1
		e.sharers |= 1 << uint(tile)
	} else {
		e.sharers |= 1 << uint(tile)
	}

	l3 := h.l3[home]
	if idx := l3.lookup(line, hash); idx >= 0 {
		l3.touch(idx, write)
		h.rec.Tile(home).L3Hits++
	} else {
		// L3 miss: fetch from the memory controller at the chip edge.
		lat += h.mesh.SendToEdge(class, home, 8)
		lat += h.cfg.MemLatency
		lat += h.mesh.SendToEdge(class, home, mem.LineSize)
		h.rec.Tile(home).MemAccesses++
		victim, vDirty := l3.insert(line, hash, write)
		if victim != 0 {
			h.evictL3(victim, home, vDirty, class)
		}
	}
	if class == noc.MsgMem || class == noc.MsgAbort {
		// Data response home->tile.
		lat += h.mesh.Send(class, home, tile, mem.LineSize)
	}

	// Fill L2 and L1.
	if l2Idx < 0 {
		victim, vDirty := l2.insert(line, hash, write)
		if victim != 0 {
			h.evictL2(victim, tile, vDirty, class)
		}
	} else {
		l2.touch(l2Idx, write)
	}
	l1.fillL1(l1Idx, line, hash, write)
	return lat
}

// dirGet returns the directory entry for line, or nil, through the
// one-entry memo.
func (h *Hierarchy) dirGet(line uint64) *dirEntry {
	if line == h.memoLine {
		return h.memoEntry
	}
	e := h.dir.Get(line)
	h.memoLine, h.memoEntry = line, e
	return e
}

// dirEntryFor returns the directory entry for line, materializing a fresh
// (pooled) one when the line is not yet tracked.
func (h *Hierarchy) dirEntryFor(line uint64) *dirEntry {
	e := h.dirGet(line)
	if e == nil {
		e = h.dirPool.Get()
		e.sharers, e.owner = 0, -1
		h.dir.Put(line, e)
		h.memoEntry = e // dirGet just set memoLine = line
	}
	return e
}

// hasRemoteCopies reports whether any tile other than tile holds line.
func (h *Hierarchy) hasRemoteCopies(line uint64, tile int) bool {
	e := h.dirGet(line)
	if e == nil {
		return false
	}
	return e.sharers&^(1<<uint(tile)) != 0 || (e.owner >= 0 && int(e.owner) != tile)
}

func (h *Hierarchy) setOwner(line uint64, tile int) {
	e := h.dirEntryFor(line)
	e.owner = int8(tile)
	e.sharers |= 1 << uint(tile)
}

// invalidateTile removes line (hash its lineHash, home its L3 bank) from
// one tile's L2 and all its cores' L1s.
func (h *Hierarchy) invalidateTile(tile int, line, hash uint64, home int, class noc.MsgClass) {
	h.rec.Tile(tile).Invalidations++
	if present, dirty := h.l2[tile].invalidate(line, hash); present && dirty {
		h.rec.Tile(tile).Writebacks++
		h.mesh.Send(class, tile, home, mem.LineSize)
	}
	base := tile * h.coresPer
	for c := 0; c < h.coresPer; c++ {
		h.l1[base+c].invalidate(line, hash)
	}
}

// evictL2 handles an L2 victim: dirty lines write back to the home bank.
func (h *Hierarchy) evictL2(victim uint64, tile int, dirty bool, class noc.MsgClass) {
	hash := lineHash(victim)
	base := tile * h.coresPer
	for c := 0; c < h.coresPer; c++ {
		h.l1[base+c].invalidate(victim, hash) // inclusion
	}
	if e := h.dirGet(victim); e != nil {
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

// evictL3 enforces inclusion: dropping an L3 line invalidates every L2/L1
// copy, and dirty data goes to the memory controller. The victim lived in
// bank home, which is its home bank.
func (h *Hierarchy) evictL3(victim uint64, home int, dirty bool, class noc.MsgClass) {
	if victim == h.memoLine {
		h.memoEntry = nil // the line leaves the directory below
	}
	if e := h.dir.Delete(victim); e != nil {
		hash := lineHash(victim)
		for t := 0; t < len(h.l2); t++ {
			if e.sharers&(1<<uint(t)) != 0 {
				h.invalidateTile(t, victim, hash, home, class)
			}
		}
		h.dirPool.Put(e)
	}
	if dirty {
		h.rec.Tile(home).Writebacks++
		h.mesh.SendToEdge(class, home, mem.LineSize)
	}
}
