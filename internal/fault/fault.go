// Package fault is a deterministic, seed-driven fault-injection registry:
// named sites embedded in the store's I/O path, swarmd's handlers, and
// swarmgate's client path, each a zero-overhead no-op until a test or
// operator arms it with a Plan (probability, schedule, latency, error).
// Armed sites fire deterministically: the decision for the Nth hit of a
// site is a pure function of (registry seed, site name, N), so a chaos
// scenario replays identically for a fixed seed and per-site hit order —
// the same discipline that makes the simulation engine reproducible,
// applied to the distributed tiers around it.
//
// Wiring pattern: a subsystem resolves its sites once (Registry.Site is a
// get-or-create) and calls Site.Fire on the hot path. A disarmed site's
// Fire is a single atomic load returning false — cheap enough to leave in
// production builds, so the injected and uninjected binaries are the same
// binary. Sites are armed two ways: programmatically (tests) and via the
// -fault CLI flag (ParseSpec) at process start.
package fault

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the root of every injected error; consumers and tests
// match it with errors.Is. Fired sites wrap it with their site name.
var ErrInjected = errors.New("fault: injected")

// Plan programs one site. The zero Plan never fires; arm a site with at
// least one of Prob or Every. Every and Prob compose as alternatives: a
// hit fires when the schedule says so OR the probability draw says so.
type Plan struct {
	// Prob fires each eligible hit independently with this probability
	// (deterministic per (seed, site, hit index); see Site.Fire).
	Prob float64
	// Every fires hit After+1, After+1+Every, ... (1 = every hit).
	Every int
	// After skips the first After hits entirely.
	After int
	// Times caps how many hits fire (0 = unlimited).
	Times int
	// Latency is injected delay: the site's consumer sleeps this long
	// (honoring its context) before acting on the rest of the outcome.
	Latency time.Duration
	// Fail injects an error: Fire returns a non-nil Fault.Err wrapping
	// ErrInjected. Latency-only plans leave it false.
	Fail bool
}

// active reports whether the plan can ever fire.
func (p Plan) active() bool { return p.Prob > 0 || p.Every > 0 }

// Fault is one fired outcome: what the site's consumer should inflict.
type Fault struct {
	// Delay to sleep before proceeding (0 = none). Use Sleep.
	Delay time.Duration
	// Err is the injected failure (nil for latency-only plans); it wraps
	// ErrInjected and names the site.
	Err error
}

// Sleep blocks for the fault's delay, returning early with ctx.Err() when
// the context dies first. A zero delay returns immediately.
func (f Fault) Sleep(ctx context.Context) error {
	if f.Delay <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(f.Delay)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Site is one named injection point. Get one from Registry.Site and keep
// the pointer; Fire on a disarmed site costs one atomic load.
type Site struct {
	name string
	reg  *Registry

	armed atomic.Bool
	plan  atomic.Pointer[Plan]
	err   error // pre-built injected error (immutable once set by Arm)

	hits  atomic.Uint64 // lifetime hits (armed or not, counted only while armed)
	fired atomic.Uint64 // hits that fired
	mu    sync.Mutex    // serializes Arm/Disarm against each other
}

// Name returns the site's registry name.
func (s *Site) Name() string { return s.name }

// Arm programs the site. Arming resets the hit and fired counters so
// After/Every/Times schedules are relative to the arming, which is what
// makes "fail the 3rd write after this point" expressible.
func (s *Site) Arm(p Plan) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.hits.Store(0)
	s.fired.Store(0)
	pp := p
	s.plan.Store(&pp)
	s.err = fmt.Errorf("%w at %s", ErrInjected, s.name)
	s.armed.Store(p.active())
}

// Disarm returns the site to its zero-overhead no-op state.
func (s *Site) Disarm() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.armed.Store(false)
	s.plan.Store(nil)
}

// Fire records one hit and reports whether the site fires on it, with the
// outcome to inflict. Disarmed sites return immediately: one atomic load,
// no counter movement, no allocation — the "injection disabled" cost.
//
// The decision is deterministic: hit N of a site fires iff the schedule
// (After/Every) selects N, or the probability draw for (seed, name, N) —
// a pure hash, not a shared PRNG — lands under Prob. Concurrent callers
// may interleave their hit numbers differently run to run, but the
// decision sequence for the site is fixed, so expected fire counts and
// bounded schedules (Times) replay exactly.
func (s *Site) Fire() (Fault, bool) {
	if !s.armed.Load() {
		return Fault{}, false
	}
	p := s.plan.Load()
	if p == nil {
		return Fault{}, false
	}
	n := s.hits.Add(1)
	if n <= uint64(p.After) {
		return Fault{}, false
	}
	eligible := n - uint64(p.After)
	fire := false
	if p.Every > 0 && (eligible-1)%uint64(p.Every) == 0 {
		fire = true
	}
	if !fire && p.Prob > 0 && hashFloat(s.reg.seed, s.name, n) < p.Prob {
		fire = true
	}
	if !fire {
		return Fault{}, false
	}
	if p.Times > 0 {
		if s.fired.Add(1) > uint64(p.Times) {
			s.fired.Add(^uint64(0)) // undo: the cap was already reached
			return Fault{}, false
		}
	} else {
		s.fired.Add(1)
	}
	f := Fault{Delay: p.Latency}
	if p.Fail {
		f.Err = s.err
	}
	return f, true
}

// hashFloat maps (seed, site, hit) to a uniform draw in [0, 1) with a
// splitmix64 finalizer over an FNV-combined key — stateless, so the draw
// for hit N never depends on which goroutine got there first.
func hashFloat(seed int64, name string, n uint64) float64 {
	h := uint64(1469598103934665603) ^ uint64(seed)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * 1099511628211
	}
	h ^= n
	h += 0x9e3779b97f4a7c15
	h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9
	h = (h ^ (h >> 27)) * 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h>>11) / float64(1<<53)
}

// Registry holds the named sites of one process (or one test's scope).
// The zero value is not usable; use NewRegistry or the package Default.
type Registry struct {
	seed int64

	mu    sync.Mutex
	sites map[string]*Site
}

// NewRegistry builds an empty registry whose probability draws derive
// from seed.
func NewRegistry(seed int64) *Registry {
	return &Registry{seed: seed, sites: make(map[string]*Site)}
}

// Seed returns the registry's draw seed.
func (r *Registry) Seed() int64 { return r.seed }

// Site returns the named site, creating it disarmed on first use. Callers
// resolve sites once and cache the pointer; the map lookup is not meant
// for hot paths.
func (r *Registry) Site(name string) *Site {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.sites[name]; ok {
		return s
	}
	s := &Site{name: name, reg: r}
	r.sites[name] = s
	return s
}

// Scoped resolves a site under an optional scope prefix: scope "" returns
// the site for name itself; scope "r1" returns the site "r1.<name>". It
// lets a test arm one replica's sites in a process hosting several
// replicas (every in-process instance shares one registry).
func Scoped(r *Registry, scope, name string) *Site {
	if scope != "" {
		name = scope + "." + name
	}
	return r.Site(name)
}

// Arm programs the named site (creating it if needed).
func (r *Registry) Arm(name string, p Plan) { r.Site(name).Arm(p) }

// Reset disarms every site. Tests defer it so one scenario's injection
// never leaks into the next.
func (r *Registry) Reset() {
	r.mu.Lock()
	sites := make([]*Site, 0, len(r.sites))
	for _, s := range r.sites {
		sites = append(sites, s)
	}
	r.mu.Unlock()
	for _, s := range sites {
		s.Disarm()
	}
}

// ArmSpec parses and applies a -fault spec string: semicolon-separated
// site programs, each "name=opt,opt,...". Options: prob:F, every:N,
// after:N, times:N, latency:DUR, fail. Example:
//
//	store.write=fail,prob:0.2;swarmd.run.slow=latency:50ms,every:3
func (r *Registry) ArmSpec(spec string) error {
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, opts, ok := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return fmt.Errorf("fault: bad site spec %q (want name=opt,...)", part)
		}
		p, err := ParsePlan(opts)
		if err != nil {
			return fmt.Errorf("fault: site %s: %w", name, err)
		}
		r.Arm(name, p)
	}
	return nil
}

// ParsePlan parses one site's comma-separated option list into a Plan.
func ParsePlan(opts string) (Plan, error) {
	var p Plan
	for _, o := range strings.Split(opts, ",") {
		o = strings.TrimSpace(o)
		if o == "" {
			continue
		}
		k, v, hasV := strings.Cut(o, ":")
		var err error
		switch k {
		case "prob":
			p.Prob, err = strconv.ParseFloat(v, 64)
			if err == nil && (p.Prob < 0 || p.Prob > 1) {
				err = fmt.Errorf("prob %v out of [0,1]", p.Prob)
			}
		case "every":
			p.Every, err = strconv.Atoi(v)
		case "after":
			p.After, err = strconv.Atoi(v)
		case "times":
			p.Times, err = strconv.Atoi(v)
		case "latency":
			p.Latency, err = time.ParseDuration(v)
		case "fail":
			if hasV {
				p.Fail, err = strconv.ParseBool(v)
			} else {
				p.Fail = true
			}
		default:
			return Plan{}, fmt.Errorf("unknown option %q", o)
		}
		if err != nil {
			return Plan{}, fmt.Errorf("option %q: %v", o, err)
		}
	}
	if !p.active() {
		return Plan{}, errors.New("plan never fires: set prob or every")
	}
	return p, nil
}

// Names returns the registered site names, sorted, for admin listings.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.sites))
	for n := range r.sites {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Default is the process-wide registry every production subsystem wires
// its sites into. Its seed is 1 until SetDefaultSeed (CLI startup, before
// any site arms) changes it. Tests that need isolation build their own
// Registry; tests of the wired subsystems arm Default and defer Reset.
var Default = NewRegistry(1)

// SetDefaultSeed re-seeds the Default registry's probability draws. Call
// once at process startup, before arming any site.
func SetDefaultSeed(seed int64) { Default.seed = seed }
