package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime/debug"
	"time"

	"swarmhints/internal/exp"
	"swarmhints/internal/metrics"
	"swarmhints/swarm"
	"swarmhints/swarm/api"
)

// layerDelta accumulates what the program's own counters and histograms
// moved during traced phases.
type layerDelta struct {
	points, routed, retried, hedged     uint64
	hits, misses, coalesced, shed, runs uint64
	storeHits, storeWrites              uint64
	storeBytes, storeRecords            int64 // gauges: the last fleet's
	stages, storeOps                    map[string]histSum
}

func newLayerDelta() *layerDelta {
	return &layerDelta{stages: map[string]histSum{}, storeOps: map[string]histSum{}}
}

func sumCounts(m map[string]uint64) uint64 {
	var n uint64
	for _, v := range m {
		n += v
	}
	return n
}

// addLayers adds the difference between two snapshots of one fleet.
func (e *env) addLayers(before, after layerSnap) {
	d := e.layers
	if d == nil {
		return
	}
	d.points += after.gate.Points - before.gate.Points
	d.routed += sumCounts(after.gate.Routed) - sumCounts(before.gate.Routed)
	d.retried += sumCounts(after.gate.Retried) - sumCounts(before.gate.Retried)
	d.hedged += after.gate.Hedged - before.gate.Hedged
	d.hits += after.svc.Hits - before.svc.Hits
	d.misses += after.svc.Misses - before.svc.Misses
	d.coalesced += after.svc.Coalesced - before.svc.Coalesced
	d.shed += after.svc.Shed - before.svc.Shed
	d.runs += after.runs - before.runs
	d.storeHits += after.store.Hits - before.store.Hits
	d.storeWrites += after.store.Writes - before.store.Writes
	d.storeBytes, d.storeRecords = after.store.Bytes, after.store.Records
	for k, a := range after.stages {
		b := before.stages[k]
		t := d.stages[k]
		t.sum += a.sum - b.sum
		t.count += a.count - b.count
		d.stages[k] = t
	}
	for k, a := range after.storeOps {
		b := before.storeOps[k]
		t := d.storeOps[k]
		t.sum += a.sum - b.sum
		t.count += a.count - b.count
		d.storeOps[k] = t
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// meanMs is a histogram's mean observation in milliseconds.
func (h histSum) meanMs() float64 { return ratio(h.sum*1000, float64(h.count)) }

// layerMetrics derives the per-layer metrics of a traced run.
func (e *env) layerMetrics(untraced, traced phase, spans, replay []span, cpu, apiM map[string]float64) map[string]float64 {
	d := e.layers
	m := map[string]float64{}

	// gate: client spans against the replica handler spans of their trace.
	tree := buildTree(spans)
	var self, coveredSum, clientSum time.Duration
	for i, c := range tree.clients {
		s := selfTime(c, tree.children[i])
		self += s
		coveredSum += c.dur() - s
		clientSum += c.dur()
	}
	m["gate.self_ms"] = ratio(ms(self), float64(len(tree.clients)))
	m["gate.useful_attempt_share"] = ratio(float64(d.points), float64(d.routed))
	m["gate.hedge_share"] = ratio(float64(d.hedged), float64(d.points))
	m["gate.retry_share"] = ratio(float64(d.retried), float64(d.points))
	busy := busyByReplica(tree.handlers, replicas)
	var busySum, busyMax time.Duration
	for _, b := range busy {
		busySum += b
		busyMax = max(busyMax, b)
	}
	m["gate.replica_skew"] = ratio(float64(busyMax)*float64(len(busy)), float64(busySum))

	for k, v := range apiM {
		m[k] = v
	}

	// service: handler spans, stage histograms and counters.
	var handlerSum time.Duration
	for _, h := range tree.handlers {
		handlerSum += h.dur()
	}
	m["service.handler_ms"] = ratio(ms(handlerSum), float64(len(tree.handlers)))
	var stageSum float64
	for _, st := range []string{"parse", "cache", "store", "coalesce", "execute"} {
		m["service.stage."+st+"_ms"] = d.stages[st].meanMs()
		stageSum += d.stages[st].sum
	}
	lookups := float64(d.hits + d.storeHits + d.misses + d.coalesced)
	m["service.lru_hit_share"] = ratio(float64(d.hits), lookups)
	m["service.store_hit_share"] = ratio(float64(d.storeHits), lookups)
	m["service.coalesced_share"] = ratio(float64(d.coalesced), lookups)
	m["service.runs"] = float64(d.runs)
	m["service.shed"] = float64(d.shed)

	// store: op histograms and counters.
	m["store.read_ms"] = d.storeOps["read"].meanMs()
	m["store.write_ms"] = d.storeOps["write"].meanMs()
	m["store.fsync_ms"] = d.storeOps["fsync"].meanMs()
	m["store.bytes_per_record"] = ratio(float64(d.storeBytes), float64(d.storeRecords))
	m["store.hits"] = float64(d.storeHits)
	m["store.writes"] = float64(d.storeWrites)

	// engine: the serial replay's call spans and CPU profile.
	per := map[string]time.Duration{}
	n := 0
	for _, s := range replay {
		per[s.name] += s.dur()
		if s.name == "replay.point" {
			n++
		}
	}
	m["engine.build_ms"] = ratio(ms(per["replay.build"]), float64(n))
	m["engine.run_ms"] = ratio(ms(per["replay.run"]), float64(n))
	m["engine.validate_ms"] = ratio(ms(per["replay.validate"]), float64(n))
	var tasks uint64
	for _, st := range e.grid.stats {
		tasks += st.CommittedTasks + st.AbortedAttempts
	}
	m["engine.tasks_per_s"] = ratio(float64(tasks), per["replay.run"].Seconds())
	for b, share := range cpu {
		m["engine.cpu."+b] = share
	}
	for k, v := range e.grid.simTotals() {
		m[k] = v
	}

	// Whole run: tracing cost, and the share of client time no layer owns.
	// Handler-covered time is attributed to the service's stages in the
	// proportion the stage histograms cover handler time.
	prim := e.w.primary
	m["trace_overhead_share"] = ratio(prim(traced), prim(untraced)) - 1
	staged := min(1, ratio(stageSum, handlerSum.Seconds()))
	m["unattributed_share"] = ratio(float64(coveredSum), float64(clientSum)) * (1 - staged)
	m["loadgen.late_p99_ms"] = quantile(traced.late, 0.99)
	// Throughput and tail latency of the untraced phase. They are not
	// gated: they follow how much CPU the host leaves the benchmark.
	m["req_per_s"] = reqPerS(untraced)
	m["p99_ms"] = quantile(untraced.lat, 0.99)
	return m
}

// apiReplay times the wire layers on recs: NDJSON record encoding, stream
// decoding, and snapshot decode plus swarm.StatsFromSnapshot (the store's
// read path), recording one span per pass.
func apiReplay(recs []metrics.Record, spans *spanLog) (map[string]float64, error) {
	const minPass = 100 * time.Millisecond
	var lines [][]byte
	var payloads [][]byte
	var size int
	for _, r := range recs {
		l, err := api.EncodeRecord(r)
		if err != nil {
			return nil, err
		}
		p, err := json.Marshal(r.Snapshot)
		if err != nil {
			return nil, err
		}
		lines, payloads, size = append(lines, l), append(payloads, p), size+len(l)
	}
	head, err := api.EncodeHeader(api.StreamHeader{Schema: metrics.SchemaVersion, Fields: exp.ExportFields, Points: len(recs)})
	if err != nil {
		return nil, err
	}
	trailer, err := api.EncodeTrailer(len(recs))
	if err != nil {
		return nil, err
	}
	stream := bytes.Join(append(append([][]byte{head}, lines...), trailer), nil)

	// timed repeats fn until minPass has elapsed and returns µs per record.
	timed := func(name string, fn func() error) (float64, error) {
		start := time.Now()
		reps := 0
		for time.Since(start) < minPass {
			if err := fn(); err != nil {
				return 0, err
			}
			reps++
		}
		end := time.Now()
		spans.add(span{name: name, parent: -1, start: start, end: end})
		return float64(end.Sub(start)) / float64(time.Microsecond) / float64(reps*len(recs)), nil
	}
	m := map[string]float64{"api.bytes_per_record": ratio(float64(size), float64(len(recs)))}
	if m["api.encode_us_per_record"], err = timed("replay.encode", func() error {
		for _, r := range recs {
			if _, err := api.EncodeRecord(r); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	if m["api.decode_us_per_record"], err = timed("replay.decode", func() error {
		dec, err := api.NewStreamDecoder(bytes.NewReader(stream))
		if err != nil {
			return err
		}
		for {
			_, ok, err := dec.Next()
			if err != nil || !ok {
				return err
			}
		}
	}); err != nil {
		return nil, err
	}
	if m["metrics.restore_us_per_record"], err = timed("replay.restore", func() error {
		for _, p := range payloads {
			var sn metrics.Snapshot
			if err := json.Unmarshal(p, &sn); err != nil {
				return err
			}
			_ = swarm.StatsFromSnapshot(&sn)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return m, nil
}

// startRSS opens a peak-memory window: garbage from earlier work is
// collected and returned to the OS, and the kernel's peak-resident-set
// mark (VmHWM) of this process is reset.
func startRSS() error {
	debug.FreeOSMemory()
	return resetPeakRSS()
}

// resetPeakRSS resets the kernel's peak-resident-set mark of this process.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting peak RSS: %w", err)
	}
	return nil
}

// rssWindowLen is the slice of a warm or open phase whose peak resident
// set is one sample; the phase reports the median sample.
const rssWindowLen = 5 * time.Second

// rssWindows samples the peak resident set of consecutive windows.
type rssWindows struct {
	stop chan struct{}
	done chan []float64
}

// startRSSWindows opens a memory window (startRSS) and then, every
// rssWindowLen until finish, records the window's peak and starts the next.
func startRSSWindows() (*rssWindows, error) {
	if err := startRSS(); err != nil {
		return nil, err
	}
	w := &rssWindows{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		var peaks []float64
		tick := time.NewTicker(rssWindowLen)
		defer tick.Stop()
		for {
			select {
			case <-tick.C:
				if p, err := peakRSSMB(); err == nil {
					peaks = append(peaks, p)
				}
				_ = resetPeakRSS()
			case <-w.stop:
				if p, err := peakRSSMB(); err == nil && len(peaks) == 0 {
					peaks = append(peaks, p) // a phase shorter than one window
				}
				w.done <- peaks
				return
			}
		}
	}()
	return w, nil
}

// finish stops the sampling and returns the windows' peaks, in MB.
func (w *rssWindows) finish() []float64 {
	close(w.stop)
	return <-w.done
}

// peakRSSMB is the process's peak resident set since the last reset, in MB.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range bytes.Split(b, []byte("\n")) {
		if rest, ok := bytes.CutPrefix(line, []byte("VmHWM:")); ok {
			var kb float64
			if _, err := fmt.Sscan(string(rest), &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, os.ErrNotExist
}
