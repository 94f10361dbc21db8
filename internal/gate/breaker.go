package gate

import (
	"sync"
	"time"
)

// Breaker defaults (Options.BreakerThreshold / BreakerCooldown override).
const (
	DefaultBreakerThreshold = 5
	DefaultBreakerCooldown  = 2 * time.Second
)

// breakerState is a circuit breaker's position.
type breakerState int

// Breaker states.
const (
	breakerClosed   breakerState = iota // normal routing
	breakerOpen                         // tripped: no attempts until the cooldown elapses
	breakerHalfOpen                     // cooldown elapsed: exactly one probe attempt at a time
)

func (s breakerState) String() string {
	switch s {
	case breakerOpen:
		return "open"
	case breakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// position is how much traffic the breaker holds off, on one gauge:
// 0 closed, 0.5 half-open, 1 open.
func (s breakerState) position() float64 {
	return [...]float64{breakerClosed: 0, breakerHalfOpen: 0.5, breakerOpen: 1}[s]
}

// breaker is one replica's circuit breaker. The health flag reacts to
// transport-level evidence (unreachable, draining); the breaker reacts to
// *any* consecutive-failure streak — including replicas that answer
// promptly with errors, which the prober sees as perfectly healthy. It
// trips open after threshold consecutive failures, holds attempts off for
// the cooldown, then admits a single half-open probe whose verdict closes
// or re-opens it.
//
// A nil *breaker is the disabled breaker: always ready, never trips —
// Options.BreakerThreshold < 0 routes exactly as before the breaker
// existed.
type breaker struct {
	threshold int
	cooldown  time.Duration

	mu       sync.Mutex
	state    breakerState
	fails    int       // consecutive failures while closed
	openedAt time.Time // when the breaker last tripped
	probing  bool      // a half-open probe is in flight
	opens    uint64    // lifetime trips (closed→open and half-open→open)
}

// newBreaker builds a breaker, or nil (disabled) for threshold < 0.
func newBreaker(threshold int, cooldown time.Duration) *breaker {
	if threshold < 0 {
		return nil
	}
	if threshold == 0 {
		threshold = DefaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	return &breaker{threshold: threshold, cooldown: cooldown}
}

// ready reports whether the replica may receive an attempt right now,
// without claiming anything — pick uses it to build the candidate set.
func (b *breaker) ready() bool {
	if b == nil {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerOpen:
		return time.Since(b.openedAt) >= b.cooldown
	case breakerHalfOpen:
		return !b.probing
	default:
		return true
	}
}

// enter registers the start of an attempt, lazily moving an expired open
// breaker to half-open. It returns true when this attempt is the half-open
// probe; the holder must settle it with success, failure, or canceled.
func (b *breaker) enter() (probe bool) {
	if b == nil {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerOpen && time.Since(b.openedAt) >= b.cooldown {
		b.state = breakerHalfOpen
		b.probing = false
	}
	if b.state == breakerHalfOpen && !b.probing {
		b.probing = true
		return true
	}
	return false
}

// success closes the breaker and clears the failure streak.
func (b *breaker) success() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.state = breakerClosed
	b.fails = 0
	b.probing = false
}

// failure records one failed attempt: a half-open probe failure re-opens
// immediately; a closed-state failure trips at the threshold. Failures
// while already open (attempts forced through the degraded candidate path)
// add no new signal.
func (b *breaker) failure() {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerHalfOpen:
		b.trip()
	case breakerClosed:
		b.fails++
		if b.fails >= b.threshold {
			b.trip()
		}
	}
}

// trip opens the breaker. Callers hold b.mu.
func (b *breaker) trip() {
	b.state = breakerOpen
	b.openedAt = time.Now()
	b.fails = 0
	b.probing = false
	b.opens++
}

// canceled releases a half-open probe slot whose attempt produced no
// verdict (caller disconnect, hedge loser) so the next attempt can probe.
func (b *breaker) canceled(probe bool) {
	if b == nil || !probe {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.state == breakerHalfOpen {
		b.probing = false
	}
}

// snapshot returns the externally visible state (an expired open reads as
// half-open) and the lifetime trip count.
func (b *breaker) snapshot() (breakerState, uint64) {
	if b == nil {
		return breakerClosed, 0
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.state
	if st == breakerOpen && time.Since(b.openedAt) >= b.cooldown {
		st = breakerHalfOpen
	}
	return st, b.opens
}
