package sim

import (
	"errors"
	"fmt"

	"swarmhints/internal/cache"
	"swarmhints/internal/calq"
	"swarmhints/internal/conflict"
	"swarmhints/internal/gvt"
	"swarmhints/internal/mem"
	"swarmhints/internal/metrics"
	"swarmhints/internal/noc"
	"swarmhints/internal/sched"
	"swarmhints/internal/task"
)

// ErrWatchdog is returned when a run exceeds its cycle budget, which
// indicates livelock or a configuration far too small for the workload.
var ErrWatchdog = errors.New("sim: watchdog cycle limit exceeded")

const (
	evCoreDone = iota
	evGVT
	evLB
	evWake // no-op: forces a dispatch attempt when a rollback window ends
)

type event struct {
	time uint64
	seq  uint64
	kind int
	core int
	gen  uint64 // core generation for stale-completion detection
}

// evPayload is the calendar queue's view of an event: everything but the
// (time, seq) key, which calq carries itself.
type evPayload struct {
	kind int
	core int
	gen  uint64
}

// eventWindow is the calendar queue's ring width in cycles. Almost every
// event lands within a task length or a GVT interval of now, far inside
// this horizon; the rare long-latency stragglers ride calq's overflow heap.
const eventWindow = 1024

// before is the event order: time, then schedule sequence. (time, seq) pairs
// are unique, so queue restructuring can never reorder equal keys and the
// event stream is fully deterministic.
func (e event) before(f event) bool {
	if e.time != f.time {
		return e.time < f.time
	}
	return e.seq < f.seq
}

// eventHeap is the reference event queue: the binary min-heap the engine
// used before the calendar queue. It is retained behind Config.useHeapEvents
// so the differential matrix test can prove the two produce byte-identical
// runs; the sift loops move the displaced event through a hole — one copy
// per level instead of a swap's two.
type eventHeap []event

func (h *eventHeap) push(e event) {
	hs := append(*h, e)
	*h = hs
	i := len(hs) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !e.before(hs[p]) {
			break
		}
		hs[i] = hs[p]
		i = p
	}
	hs[i] = e
}

func (h *eventHeap) pop() event {
	hs := *h
	top := hs[0]
	last := len(hs) - 1
	e := hs[last]
	hs = hs[:last]
	*h = hs
	if last == 0 {
		return top
	}
	i := 0
	for {
		l := 2*i + 1
		if l >= last {
			break
		}
		s := l
		if r := l + 1; r < last && hs[r].before(hs[l]) {
			s = r
		}
		if !hs[s].before(e) {
			break
		}
		hs[i] = hs[s]
		i = s
	}
	hs[i] = e
	return top
}

type coreState struct {
	tile      int
	running   *task.Task
	busyUntil uint64
	gen       uint64
	idleSince uint64
	reason    idleReason
}

// Engine simulates one run of a Program under a Config.
type Engine struct {
	cfg   Config
	prog  *Program
	mesh  *noc.Mesh
	hier  *cache.Hierarchy
	index *conflict.Index
	arb   *gvt.Arbiter
	schd  *sched.Scheduler

	queues   []*task.Queue
	finished [][]*task.Task // per tile
	cores    []coreState

	// rec is the per-tile metrics recorder every subsystem publishes into;
	// the run's Stats are a snapshot over it.
	rec *metrics.Recorder

	// events is the engine's pending-event queue, popped once per simulated
	// wake-up — one of the hottest structures in the engine. The calendar
	// queue gives amortized O(1) push/pop for the near-horizon events a
	// cycle-driven run produces; heapEv is the pre-calq reference engine,
	// active only when cfg.useHeapEvents is set (differential tests).
	events  *calq.Queue[evPayload]
	heapEv  eventHeap
	useHeap bool
	evSeq   uint64
	now     uint64

	nextID uint64
	live   int64 // tasks neither committed nor squashed

	stats Stats
	prof  *profiler

	// Hot-path object recycling and scratch buffers. All per-engine, so
	// concurrent engines in a parallel sweep share no state.
	pool    task.Pool    // recycles descriptors of committed tasks
	retired []*task.Task // committed this GVT round, recycled at round end
	ctxs    []Ctx        // per-core task contexts, reused across dispatches

	gvtMins    []task.Order   // per-tile minima, reused across GVT rounds
	gvtRunning [][]*task.Task // per-tile running tasks, reused across rounds

	runScratch  []runHint       // pickCandidate's running-task snapshot
	idleScratch []int           // per-tile idle counts for load balancing
	logScratch  []*mem.UndoLog  // abort's undo-log collection
	undoScratch []mem.UndoEntry // abort's merged-rollback buffer

	// pickCandidate memo. The candidate walk is a function of the tile's
	// idle heap and running set only, and under hint serialization it can
	// visit every idle task just to conclude "stall"; each tile caches its
	// last result, invalidated by a version counter that every mutation of
	// those inputs bumps. A hit replaces the walk with two loads — the
	// dominant case in contended phases, where dispatch re-attempts every
	// event while the queue state barely changes.
	pickMemo []pickMemo
}

// pickMemo is one tile's dispatch-candidate cache: the tile's current input
// version and the result computed at memoVer (valid while they match).
type pickMemo struct {
	ver     uint64
	memoVer uint64
	pick    *task.Task
	ok      bool
}

// bumpPick invalidates a tile's cached dispatch candidate; call after any
// change to the tile's idle tasks or running set.
func (e *Engine) bumpPick(tile int) { e.pickMemo[tile].ver++ }

// runHint is pickCandidate's snapshot of one running hinted task.
type runHint struct {
	hash uint16
	ord  task.Order
}

// Run executes the program's roots to completion under cfg and returns the
// run statistics.
func Run(p *Program, roots []Root, cfg Config) (*Stats, error) {
	e := newEngine(p, cfg)
	for _, r := range roots {
		e.enqueue(nil, 0, r.Fn, r.TS, r.HintKind, r.Hint, r.Args...)
	}
	return e.run()
}

func newEngine(p *Program, cfg Config) *Engine {
	tiles := cfg.Tiles()
	rec := metrics.New(tiles)
	e := &Engine{
		cfg:   cfg,
		prog:  p,
		rec:   rec,
		mesh:  noc.New(cfg.MeshK, rec),
		index: conflict.NewIndex(rec),
		arb:   gvt.NewArbiter(cfg.GVTInterval),
		schd:  sched.New(cfg.Scheduler, tiles, cfg.LBInterval, cfg.Seed, rec),
	}
	e.hier = cache.New(cfg.Cache, e.mesh, cfg.CoresPerTile)
	e.queues = make([]*task.Queue, tiles)
	e.finished = make([][]*task.Task, tiles)
	for t := range e.queues {
		e.queues[t] = task.NewQueue(t,
			cfg.TaskQPerCore*cfg.CoresPerTile,
			cfg.CommitQPerCore*cfg.CoresPerTile)
	}
	e.cores = make([]coreState, tiles*cfg.CoresPerTile)
	for c := range e.cores {
		e.cores[c].tile = c / cfg.CoresPerTile
	}
	e.ctxs = make([]Ctx, len(e.cores))
	e.gvtMins = make([]task.Order, tiles)
	e.gvtRunning = make([][]*task.Task, tiles)
	e.pickMemo = make([]pickMemo, tiles)
	e.idleScratch = make([]int, tiles)
	e.useHeap = cfg.useHeapEvents
	if !e.useHeap {
		e.events = calq.New[evPayload](eventWindow)
	}
	if cfg.Profile {
		e.prof = newProfiler()
	}
	return e
}

func (e *Engine) run() (*Stats, error) {
	maxCycles := e.cfg.MaxCycles
	if maxCycles == 0 {
		maxCycles = 50_000_000_000
	}
	e.schedule(evGVT, e.arb.NextDue(), 0, 0)
	if e.schd.Kind() == sched.LBHints || e.schd.Kind() == sched.LBIdleProxy {
		e.schedule(evLB, e.cfg.LBInterval, 0, 0)
	}

	for e.live > 0 {
		e.dispatchAll()
		if e.live == 0 {
			break
		}
		if e.pendingEvents() == 0 {
			return nil, fmt.Errorf("sim: no events pending with %d live tasks (deadlock)", e.live)
		}
		ev := e.popEvent()
		if ev.time > maxCycles {
			return nil, fmt.Errorf("%w at cycle %d (%d live tasks)\n%s", ErrWatchdog, ev.time, e.live, e.dumpState())
		}
		e.now = ev.time
		e.handle(ev)
		// Drain every event scheduled for this same cycle before
		// re-attempting dispatch, so the cycle's state is settled.
		for {
			t, ok := e.peekEventTime()
			if !ok || t != e.now {
				break
			}
			e.handle(e.popEvent())
		}
	}

	// Final commit wave timing: the makespan ends when the last task
	// committed, which the GVT handler recorded in e.now.
	for c := range e.cores {
		e.flushIdle(c)
	}
	e.finalizeStats()
	// Return a copy: a pointer into the engine would keep its queues,
	// conflict table, and cache arrays alive as long as the caller (a
	// result cache, say) holds the Stats.
	st := e.stats
	return &st, nil
}

// dumpState renders per-tile queue occupancy and the earliest stuck tasks,
// for watchdog diagnostics.
func (e *Engine) dumpState() string {
	s := fmt.Sprintf("gvt=%+v\n", e.arb.GVT())
	for tile, q := range e.queues {
		if q.Resident() == 0 && q.SpilledCount() == 0 {
			continue
		}
		s += fmt.Sprintf("tile %d: resident=%d idle=%d commitUsed=%d/%d spilled=%d",
			tile, q.Resident(), q.IdleCount(), q.CommitUsed(),
			e.cfg.CommitQPerCore*e.cfg.CoresPerTile, q.SpilledCount())
		if t := q.PeekEarliest(); t != nil {
			s += fmt.Sprintf(" earliestIdle={id=%d ts=%d fn=%d aborts=%d}", t.ID, t.TS, t.Fn, t.Aborts)
		}
		base := tile * e.cfg.CoresPerTile
		for c := 0; c < e.cfg.CoresPerTile; c++ {
			if t := e.cores[base+c].running; t != nil {
				s += fmt.Sprintf(" running[%d]={id=%d ts=%d}", c, t.ID, t.TS)
			}
		}
		s += fmt.Sprintf(" finished=%d\n", len(e.finished[tile]))
	}
	return s
}

// finalizeStats takes the run's Stats as a snapshot over the recorder:
// every chip-wide aggregate is the sum of the per-tile counters, and the
// per-tile blocks themselves ride along for the per-tile views.
func (e *Engine) finalizeStats() {
	agg := e.rec.Aggregate()
	e.stats.Cycles = e.now
	e.stats.Cores = len(e.cores)
	e.stats.Breakdown = CycleBreakdown{
		Commit: agg.CommitCycles,
		Abort:  agg.AbortCycles,
		Spill:  agg.SpillCycles,
		Stall:  agg.StallCycles,
		Empty:  agg.EmptyCycles,
	}
	e.stats.CommittedTasks = agg.CommittedTasks
	e.stats.AbortedAttempts = agg.AbortedAttempts
	e.stats.SquashedTasks = agg.SquashedTasks
	e.stats.SpilledTasks = agg.SpilledTasks
	e.stats.StolenTasks = agg.StolenTasks
	e.stats.EnqueuedTasks = agg.EnqueuedTasks
	e.stats.Traffic = agg.Traffic
	e.stats.Cache = cache.StatsFrom(agg)
	e.stats.Comparisons = agg.Comparisons
	e.stats.Reconfigs = e.schd.Reconfigs()
	e.stats.GVTRounds = e.arb.Rounds()
	e.stats.Tiles = e.rec.Snapshot()
	if e.prof != nil {
		e.stats.Classification = e.prof.classify()
	}
}

func (e *Engine) schedule(kind int, t uint64, core int, gen uint64) {
	e.evSeq++
	if e.useHeap {
		e.heapEv.push(event{time: t, seq: e.evSeq, kind: kind, core: core, gen: gen})
		return
	}
	e.events.Push(t, e.evSeq, evPayload{kind: kind, core: core, gen: gen})
}

func (e *Engine) pendingEvents() int {
	if e.useHeap {
		return len(e.heapEv)
	}
	return e.events.Len()
}

func (e *Engine) popEvent() event {
	if e.useHeap {
		return e.heapEv.pop()
	}
	en := e.events.Pop()
	return event{time: en.Time, seq: en.Seq, kind: en.V.kind, core: en.V.core, gen: en.V.gen}
}

func (e *Engine) peekEventTime() (uint64, bool) {
	if e.useHeap {
		if len(e.heapEv) == 0 {
			return 0, false
		}
		return e.heapEv[0].time, true
	}
	return e.events.PeekTime()
}

func (e *Engine) handle(ev event) {
	switch ev.kind {
	case evCoreDone:
		c := &e.cores[ev.core]
		if c.gen != ev.gen || c.running == nil {
			return // stale: the task aborted before completing
		}
		t := c.running
		c.running = nil
		c.idleSince = e.now
		e.queues[t.Tile].Finish(t)
		e.finished[t.Tile] = append(e.finished[t.Tile], t)
		e.bumpPick(t.Tile) // running set changed
	case evGVT:
		e.gvtRound()
		e.schedule(evGVT, e.arb.NextDue(), 0, 0)
	case evWake:
		// Nothing to do: the main loop re-attempts dispatch after every
		// event batch, which is the point of this event.
	case evLB:
		if e.schd.ReconfigDue(e.now) {
			idle := e.idleScratch
			for i, q := range e.queues {
				idle[i] = q.IdleCount()
			}
			e.schd.Reconfigure(e.now, idle)
		}
		e.schedule(evLB, e.now+e.cfg.LBInterval, 0, 0)
	}
}

// gvtRound performs one virtual-time update: tiles report their earliest
// unfinished task, the arbiter computes the minimum, and every finished
// task that precedes it commits.
func (e *Engine) gvtRound() {
	tiles := len(e.queues)
	mins := e.gvtMins
	runningOf := e.gvtRunning
	for i := range runningOf {
		runningOf[i] = runningOf[i][:0]
	}
	for c := range e.cores {
		if t := e.cores[c].running; t != nil {
			runningOf[e.cores[c].tile] = append(runningOf[e.cores[c].tile], t)
		}
	}
	for i, q := range e.queues {
		mins[i] = q.EarliestUncommitted(runningOf[i], nil)
	}
	g := e.arb.Update(e.now, mins)

	// GVT traffic: each tile exchanges an 8-byte update with the arbiter.
	for t := 1; t < tiles; t++ {
		e.mesh.Send(noc.MsgGVT, t, 0, 8)
		e.mesh.Send(noc.MsgGVT, 0, t, 8)
	}

	for tile := range e.finished {
		list := e.finished[tile]
		out := list[:0]
		for _, t := range list {
			if t.Ord().Before(g) {
				e.commit(t)
			} else {
				out = append(out, t)
			}
		}
		e.finished[tile] = out
	}

	// Commits freed queue space: pull spilled tasks back in.
	for tile, q := range e.queues {
		if q.SpilledCount() > 0 && !q.NearlyFull(e.cfg.SpillThresholdPct) {
			e.refill(tile)
		}
	}

	e.releaseRetired()
}

func (e *Engine) commit(t *task.Task) {
	e.index.Remove(t)
	e.queues[t.Tile].Commit(t)
	e.live--
	tc := e.rec.Tile(t.Tile)
	tc.CommittedTasks++
	tc.CommitCycles += t.RunCycles
	e.schd.OnCommit(t, t.RunCycles)
	if e.prof != nil {
		e.prof.onCommit(t.Reads, t.Writes, t.Hint, t.HasHint(), t.ID, len(t.Args))
	}
	// Recycling is deferred to the end of the GVT round: a child on another
	// tile may commit later in this same round while still holding its
	// Parent pointer at us.
	e.retired = append(e.retired, t)
}

// releaseRetired recycles every task committed during the GVT round that
// just finished. A task becomes unreachable only once no child's Parent
// pointer targets it; since a parent always precedes its children in
// speculative order, a parent commits in the same round as its children or
// earlier, so clearing Parent pointers for the whole round's commits before
// recycling any of them is sufficient — after this, nothing in the engine
// references a retired descriptor.
func (e *Engine) releaseRetired() {
	for _, t := range e.retired {
		for _, c := range t.Children {
			if c.Parent == t {
				c.Parent = nil // c may itself be retired, squashed, or live
			}
		}
		t.Children = t.Children[:0]
	}
	for i, t := range e.retired {
		e.pool.Put(t)
		e.retired[i] = nil
	}
	e.retired = e.retired[:0]
}

// enqueue creates a task, maps it to a tile, and inserts it, spilling to
// make room when the destination queue is exhausted.
func (e *Engine) enqueue(parent *task.Task, fromTile int, fn task.FnID, ts uint64, kind task.HintKind, hint uint64, args ...uint64) *task.Task {
	if parent != nil && ts < parent.TS {
		ts = parent.TS // children may not precede their parent (Sec. II-A)
	}
	e.nextID++
	t := e.pool.Get(e.nextID, fn, ts, kind, hint, parent, args)
	if parent != nil {
		e.pool.AddChild(parent, t)
	}
	dest := e.schd.DestTile(t, fromTile)
	if dest != fromTile {
		e.mesh.Send(noc.MsgTask, fromTile, dest, task.DescriptorBytes(t))
	}
	q := e.queues[dest]
	e.bumpPick(dest)
	if q.NearlyFull(e.cfg.SpillThresholdPct) {
		e.spill(dest)
	}
	if !q.Enqueue(t) {
		e.spill(dest)
		if !q.Enqueue(t) {
			// Task queue exhausted and nothing spillable: overflow the new
			// descriptor itself to memory.
			q.SpillDirect(t)
			e.rec.Tile(dest).SpilledTasks++
			e.mesh.SendToEdge(noc.MsgMem, dest, task.DescriptorBytes(t))
		}
	}
	e.live++
	e.rec.Tile(dest).EnqueuedTasks++
	return t
}

// spill fires the tile's coalescer (Sec. II-B / Table II).
func (e *Engine) spill(tile int) {
	e.bumpPick(tile)
	sp := e.queues[tile].Spill(e.cfg.SpillBatch)
	tc := e.rec.Tile(tile)
	for _, t := range sp {
		tc.SpilledTasks++
		tc.SpillCycles += e.cfg.SpillCyclesPer
		e.mesh.SendToEdge(noc.MsgMem, tile, task.DescriptorBytes(t))
	}
}

func (e *Engine) refill(tile int) {
	e.bumpPick(tile)
	back := e.queues[tile].Refill(e.cfg.SpillBatch)
	tc := e.rec.Tile(tile)
	for _, t := range back {
		tc.SpillCycles += e.cfg.SpillCyclesPer
		e.mesh.SendToEdge(noc.MsgMem, tile, task.DescriptorBytes(t))
	}
}

// dispatchAll tries to dispatch on every free core until a fixpoint: a
// dispatch can free other cores (via aborts) or create work (via enqueues).
func (e *Engine) dispatchAll() {
	for progress := true; progress; {
		progress = false
		for c := range e.cores {
			cs := &e.cores[c]
			if cs.running != nil || cs.busyUntil > e.now {
				continue
			}
			if e.tryDispatch(c) {
				progress = true
			}
		}
	}
}

func (e *Engine) tryDispatch(coreID int) bool {
	cs := &e.cores[coreID]
	tile := cs.tile
	q := e.queues[tile]

	if q.IdleCount() == 0 && q.SpilledCount() > 0 && !q.Full() {
		e.refill(tile)
	}
	if e.schd.WantSteal() && q.IdleCount() == 0 {
		e.steal(tile)
	}
	if q.IdleCount() == 0 {
		e.markIdle(coreID, idleEmpty)
		return false
	}

	pick := e.pickCandidate(tile)
	if pick == nil {
		e.markIdle(coreID, idleSerial)
		return false
	}

	if !q.CommitSlotFree() {
		// Commit queue exhausted: normally stall, but if the stall has
		// persisted a full GVT interval (so commits alone will not unblock
		// us — the candidate itself may be holding GVT back), abort the
		// latest speculative task on this tile to make room ("aborting
		// higher-timestamp tasks to free space", Sec. II-B).
		blockedLong := cs.reason == idleCommitQ && e.now-cs.idleSince >= 2*e.cfg.GVTInterval
		var victim *task.Task
		if blockedLong {
			victim = e.latestSpeculative(tile)
		}
		if victim != nil && victim.State == task.Finished &&
			pick.Ord().Before(victim.Ord()) {
			e.abort(victim)
			if pick.State != task.Idle { // candidate got dragged into the abort
				e.markIdle(coreID, idleCommitQ)
				return false
			}
		} else {
			e.markIdle(coreID, idleCommitQ)
			return false
		}
		if !q.CommitSlotFree() {
			e.markIdle(coreID, idleCommitQ)
			return false
		}
	}

	e.flushIdle(coreID)
	q.Dispatch(pick, coreID)
	e.execute(pick, coreID)
	return true
}

// pickCandidate selects the earliest idle task, skipping tasks whose hashed
// hint matches an earlier-order running task on the tile (Sec. III-B).
func (e *Engine) pickCandidate(tile int) *task.Task {
	q := e.queues[tile]
	if !e.schd.SerializeSameHint() {
		return q.PeekEarliest()
	}
	if m := &e.pickMemo[tile]; m.ok && m.ver == m.memoVer {
		return m.pick
	}
	running := e.runScratch[:0]
	base := tile * e.cfg.CoresPerTile
	for c := 0; c < e.cfg.CoresPerTile; c++ {
		if t := e.cores[base+c].running; t != nil && t.HasHint() {
			running = append(running, runHint{t.HintHash, t.Ord()})
		}
	}
	e.runScratch = running
	var pick *task.Task
	q.IdleInOrder(func(t *task.Task) bool {
		if t.HasHint() {
			for _, r := range running {
				if r.hash == t.HintHash && r.ord.Before(t.Ord()) {
					return true // serialized: skip, try next-earliest
				}
			}
		}
		pick = t
		return false
	})
	m := &e.pickMemo[tile]
	m.memoVer, m.pick, m.ok = m.ver, pick, true
	return pick
}

// latestSpeculative returns the latest-order running-or-finished task on a
// tile (the natural victim when commit resources run out).
func (e *Engine) latestSpeculative(tile int) *task.Task {
	var latest *task.Task
	base := tile * e.cfg.CoresPerTile
	for c := 0; c < e.cfg.CoresPerTile; c++ {
		if t := e.cores[base+c].running; t != nil {
			if latest == nil || latest.Ord().Before(t.Ord()) {
				latest = t
			}
		}
	}
	for _, t := range e.finished[tile] {
		if latest == nil || latest.Ord().Before(t.Ord()) {
			latest = t
		}
	}
	return latest
}

// steal implements the idealized work-stealing protocol of Sec. II-C: the
// out-of-work tile instantaneously takes the earliest-timestamp task from
// the tile with the most idle tasks, with no cycle or traffic cost.
func (e *Engine) steal(tile int) {
	victim, best := -1, 0
	for i, q := range e.queues {
		if i != tile && q.IdleCount() > best {
			victim, best = i, q.IdleCount()
		}
	}
	if victim < 0 || e.queues[tile].Full() {
		return
	}
	t := e.queues[victim].PeekEarliest()
	e.queues[victim].RemoveIdle(t)
	e.bumpPick(victim)
	e.bumpPick(tile)
	if !e.queues[tile].Enqueue(t) {
		e.queues[victim].Enqueue(t) // put it back; should not happen
		return
	}
	e.rec.Tile(tile).StolenTasks++
}

func (e *Engine) execute(t *task.Task, coreID int) {
	cs := &e.cores[coreID]
	e.bumpPick(cs.tile) // idle heap shrank, running set grows
	t.ResetAttempt()
	t.DispatchCycle = e.now
	cs.running = t
	cs.gen++
	// Reuse the core's context slot: a fresh &Ctx{} would escape to the
	// heap on every dispatch through the dynamic task-function call.
	ctx := &e.ctxs[coreID]
	*ctx = Ctx{e: e, t: t, core: coreID, tile: cs.tile,
		cycles: e.cfg.TaskOpCycles + e.cfg.BaseTaskCycles}
	e.prog.fns[t.Fn](ctx)
	ctx.cycles += e.cfg.TaskOpCycles // finish-task op
	t.RunCycles = ctx.cycles
	cs.busyUntil = e.now + ctx.cycles
	e.schedule(evCoreDone, cs.busyUntil, coreID, cs.gen)
}

// abort rolls back seed and every descendant and data-dependent task
// (Sec. II-B). Descendants of aborting tasks are squashed (their parent will
// re-create them); data-dependent tasks return to their queues for retry.
func (e *Engine) abort(seed *task.Task) {
	switch seed.State {
	case task.Committed, task.Squashed, task.Idle, task.Spilled:
		return // already resolved or never ran
	}
	set := e.index.AbortSet(seed)
	seedTile := seed.Tile
	logs := e.logScratch[:0]

	for _, t := range set {
		squash := t.Parent != nil && e.index.InLastAbortSet(t.Parent)
		q := e.queues[t.Tile]
		e.bumpPick(t.Tile) // every outcome below touches idle or running state
		if t != seed && t.Tile != seedTile {
			e.mesh.Send(noc.MsgAbort, seedTile, t.Tile, 16)
		}
		switch t.State {
		case task.Running:
			// The mispeculating core runs until the abort and then spends
			// the rollback window restoring its undo log (Sec. IV-A:
			// "simulating conflict check and rollback delays").
			rb := e.cfg.AbortBaseCycles + 2*uint64(len(t.Writes))
			soFar := e.now - t.DispatchCycle
			tc := e.rec.Tile(t.Tile)
			tc.AbortCycles += soFar + rb
			tc.AbortedAttempts++
			cs := &e.cores[t.Core]
			cs.running = nil
			cs.gen++
			cs.busyUntil = e.now + rb
			cs.idleSince = e.now + rb
			e.schedule(evWake, e.now+rb, t.Core, 0)
			e.rollbackTraffic(t)
			if t.Undo.Len() > 0 { // read-only attempts add nothing to the merge
				logs = append(logs, &t.Undo)
			}
			e.index.Remove(t)
			if squash {
				q.SquashRunning(t)
				e.live--
				tc.SquashedTasks++
			} else {
				q.AbortRunning(t)
			}
		case task.Finished:
			tc := e.rec.Tile(t.Tile)
			tc.AbortCycles += t.RunCycles
			tc.AbortedAttempts++
			e.removeFinished(t)
			e.rollbackTraffic(t)
			if t.Undo.Len() > 0 {
				logs = append(logs, &t.Undo)
			}
			e.index.Remove(t)
			if squash {
				q.SquashFinished(t)
				e.live--
				tc.SquashedTasks++
			} else {
				q.AbortFinished(t)
			}
		case task.Idle:
			// Never ran: in the set only as a descendant. Squash it.
			q.Squash(t)
			e.live--
			e.rec.Tile(t.Tile).SquashedTasks++
		case task.Spilled:
			t.State = task.Squashed // spill buffer drops it lazily
			e.live--
			e.rec.Tile(t.Tile).SquashedTasks++
		}
	}
	e.undoScratch = mem.RollbackInto(e.prog.Mem, logs, e.undoScratch)[:0]
	e.logScratch = logs[:0]
}

// rollbackTraffic charges the abort-class memory traffic of restoring a
// task's undo log (Sec. IV: "abort traffic [includes] rollback memory
// accesses").
func (e *Engine) rollbackTraffic(t *task.Task) {
	for _, a := range t.Writes {
		e.hier.Access(t.Core, t.Tile, a, true, noc.MsgAbort)
	}
}

func (e *Engine) removeFinished(t *task.Task) {
	list := e.finished[t.Tile]
	for i, x := range list {
		if x == t {
			list[i] = list[len(list)-1]
			e.finished[t.Tile] = list[:len(list)-1]
			return
		}
	}
}

func (e *Engine) markIdle(coreID int, r idleReason) {
	cs := &e.cores[coreID]
	if cs.reason == r {
		return
	}
	e.flushIdle(coreID)
	cs.idleSince = e.now
	cs.reason = r
}

func (e *Engine) flushIdle(coreID int) {
	cs := &e.cores[coreID]
	if cs.reason == idleNone {
		cs.idleSince = e.now
		return
	}
	gap := e.now - cs.idleSince
	switch cs.reason {
	case idleEmpty:
		e.rec.Tile(cs.tile).EmptyCycles += gap
	case idleCommitQ, idleSerial:
		e.rec.Tile(cs.tile).StallCycles += gap
	}
	cs.idleSince = e.now
	cs.reason = idleNone
}
