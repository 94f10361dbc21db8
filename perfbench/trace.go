package main

import (
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"swarmhints/internal/obs"
	"swarmhints/swarm/api"
)

// Span names recorded by the benchmark.
const (
	spanClient  = "client"  // one request as the load generator saw it
	spanHandler = "handler" // one replica handler invocation
)

// span is one timed interval recorded from benchmark code. Client and
// handler spans of one request share trace, the X-Swarm-Trace identity the
// client sets and the gateway propagates; replay spans name their parent
// by index instead.
type span struct {
	name    string
	trace   obs.TraceID
	replica int // handler spans: which replica served it
	parent  int // index of the parent span, -1 for roots or trace-joined spans
	start   time.Time
	end     time.Time
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// spanLog keeps spans in memory until the run reports.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

// add records a finished span and returns its index.
func (l *spanLog) add(s span) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, s)
	return len(l.spans) - 1
}

// setEnd closes a span recorded before its end was known.
func (l *spanLog) setEnd(i int, end time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[i].end = end
}

// all returns a copy of the recorded spans.
func (l *spanLog) all() []span {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]span(nil), l.spans...)
}

// handler wraps one replica's HTTP handler, recording a handler span per
// /v1 request under the trace its X-Swarm-Trace header carries.
func (l *spanLog) handler(replica int, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !strings.HasPrefix(r.URL.Path, "/v1/") {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		trace, _, _ := obs.ParseHeader(r.Header.Get(api.TraceHeader))
		l.add(span{name: spanHandler, trace: trace, replica: replica, parent: -1, start: start, end: time.Now()})
	})
}

// interval is a half-open time range.
type interval struct{ lo, hi time.Time }

// covered returns how much of [lo, hi) the union of ivs covers.
func covered(lo, hi time.Time, ivs []interval) time.Duration {
	clipped := make([]interval, 0, len(ivs))
	for _, iv := range ivs {
		if iv.lo.Before(lo) {
			iv.lo = lo
		}
		if iv.hi.After(hi) {
			iv.hi = hi
		}
		if iv.hi.After(iv.lo) {
			clipped = append(clipped, iv)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].lo.Before(clipped[j].lo) })
	var total time.Duration
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.lo.After(cur.hi):
			total += cur.hi.Sub(cur.lo)
			cur = iv
		case iv.hi.After(cur.hi):
			cur.hi = iv.hi
		}
	}
	if len(clipped) > 0 {
		total += cur.hi.Sub(cur.lo)
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
func selfTime(parent span, children []span) time.Duration {
	ivs := make([]interval, len(children))
	for i, c := range children {
		ivs[i] = interval{c.start, c.end}
	}
	return parent.dur() - covered(parent.start, parent.end, ivs)
}

// spanTree groups client spans with the handler spans of their trace.
type spanTree struct {
	clients  []span
	children [][]span // handler spans per client span
	handlers []span   // every handler span, joined or not
}

func buildTree(spans []span) spanTree {
	var t spanTree
	byTrace := map[obs.TraceID]int{}
	for _, s := range spans {
		if s.name == spanClient {
			byTrace[s.trace] = len(t.clients)
			t.clients = append(t.clients, s)
		}
	}
	t.children = make([][]span, len(t.clients))
	for _, s := range spans {
		if s.name != spanHandler {
			continue
		}
		t.handlers = append(t.handlers, s)
		if i, ok := byTrace[s.trace]; ok && !s.trace.IsZero() {
			t.children[i] = append(t.children[i], s)
		}
	}
	return t
}

// busyByReplica is the union of each replica's handler intervals.
func busyByReplica(handlers []span, n int) []time.Duration {
	ivs := make([][]interval, n)
	lo, hi := time.Time{}, time.Time{}
	for _, h := range handlers {
		if h.replica < 0 || h.replica >= n {
			continue
		}
		ivs[h.replica] = append(ivs[h.replica], interval{h.start, h.end})
		if lo.IsZero() || h.start.Before(lo) {
			lo = h.start
		}
		if h.end.After(hi) {
			hi = h.end
		}
	}
	busy := make([]time.Duration, n)
	for i := range ivs {
		busy[i] = covered(lo, hi, ivs[i])
	}
	return busy
}
