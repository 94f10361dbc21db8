package fault

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestDisarmedSiteIsNoop(t *testing.T) {
	r := NewRegistry(7)
	s := r.Site("x")
	for i := 0; i < 1000; i++ {
		if f, ok := s.Fire(); ok || f.Err != nil || f.Delay != 0 {
			t.Fatal("disarmed site fired")
		}
	}
	if hits, fired := s.hits.Load(), s.fired.Load(); hits != 0 || fired != 0 || s.armed.Load() {
		t.Fatalf("disarmed site moved counters: hits=%d fired=%d", hits, fired)
	}
}

func TestEverySchedule(t *testing.T) {
	r := NewRegistry(7)
	s := r.Site("x")
	s.Arm(Plan{Every: 3, After: 2, Times: 2, Fail: true})
	var fires []int
	for i := 1; i <= 12; i++ {
		if f, ok := s.Fire(); ok {
			fires = append(fires, i)
			if !errors.Is(f.Err, ErrInjected) {
				t.Fatalf("fired error %v does not wrap ErrInjected", f.Err)
			}
			if !strings.Contains(f.Err.Error(), "x") {
				t.Fatalf("fired error %v does not name the site", f.Err)
			}
		}
	}
	// After=2 skips hits 1-2; Every=3 selects hits 3, 6, 9, ...; Times=2
	// caps it at the first two.
	if len(fires) != 2 || fires[0] != 3 || fires[1] != 6 {
		t.Fatalf("fires at %v, want [3 6]", fires)
	}
}

func TestProbDeterministicPerHit(t *testing.T) {
	// The decision for hit N is a pure function of (seed, name, N): two
	// registries with the same seed replay the same fire pattern, and a
	// different seed produces a different one.
	pattern := func(seed int64) []bool {
		r := NewRegistry(seed)
		s := r.Site("p")
		s.Arm(Plan{Prob: 0.3})
		out := make([]bool, 200)
		for i := range out {
			_, out[i] = s.Fire()
		}
		return out
	}
	a, b := pattern(42), pattern(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at hit %d", i)
		}
	}
	c := pattern(43)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical patterns")
	}
}

func TestProbRate(t *testing.T) {
	r := NewRegistry(1)
	s := r.Site("rate")
	s.Arm(Plan{Prob: 0.25, Fail: true})
	fired := 0
	const n = 20000
	for i := 0; i < n; i++ {
		if _, ok := s.Fire(); ok {
			fired++
		}
	}
	got := float64(fired) / n
	if math.Abs(got-0.25) > 0.02 {
		t.Fatalf("fire rate %.3f, want ~0.25", got)
	}
}

func TestTimesBoundUnderConcurrency(t *testing.T) {
	r := NewRegistry(1)
	s := r.Site("cap")
	s.Arm(Plan{Every: 1, Times: 5, Fail: true})
	var wg sync.WaitGroup
	var count int64
	var mu sync.Mutex
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				if _, ok := s.Fire(); ok {
					mu.Lock()
					count++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if count != 5 {
		t.Fatalf("fired %d times, want exactly 5", count)
	}
}

func TestLatencyOnlyPlanAndSleep(t *testing.T) {
	r := NewRegistry(1)
	s := r.Site("slow")
	s.Arm(Plan{Every: 1, Latency: 5 * time.Millisecond})
	f, ok := s.Fire()
	if !ok || f.Err != nil || f.Delay != 5*time.Millisecond {
		t.Fatalf("latency-only fire = %+v ok=%v", f, ok)
	}
	start := time.Now()
	if err := f.Sleep(context.Background()); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) < 4*time.Millisecond {
		t.Fatal("Sleep returned early")
	}
	// A dead context cuts the sleep short.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f2 := Fault{Delay: time.Hour}
	if err := f2.Sleep(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Sleep with dead context: %v", err)
	}
}

func TestArmResetsCounters(t *testing.T) {
	r := NewRegistry(1)
	s := r.Site("x")
	s.Arm(Plan{Every: 1, Fail: true})
	s.Fire()
	s.Fire()
	s.Arm(Plan{Every: 1, After: 1, Fail: true})
	if _, ok := s.Fire(); ok {
		t.Fatal("After schedule not relative to re-arming")
	}
	if _, ok := s.Fire(); !ok {
		t.Fatal("second post-arm hit should fire")
	}
}

func TestArmSpecAndParsePlan(t *testing.T) {
	r := NewRegistry(1)
	err := r.ArmSpec("store.write=fail,prob:0.5; swarmd.run.slow=latency:50ms,every:3,after:1,times:2")
	if err != nil {
		t.Fatal(err)
	}
	w := r.Site("store.write")
	if wp := w.plan.Load(); !w.armed.Load() || !wp.Fail || wp.Prob != 0.5 {
		t.Fatalf("store.write = %+v", wp)
	}
	sl := r.Site("swarmd.run.slow")
	if sp := sl.plan.Load(); !sl.armed.Load() || sp.Latency != 50*time.Millisecond || sp.Every != 3 || sp.After != 1 || sp.Times != 2 {
		t.Fatalf("swarmd.run.slow = %+v", sp)
	}

	for _, bad := range []string{
		"noequals", "x=prob:2", "x=unknown:1", "x=", "x=latency:zzz", "x=after:1",
	} {
		if err := r.ArmSpec(bad); err == nil {
			t.Errorf("ArmSpec(%q) accepted", bad)
		}
	}
}

func TestResetDisarmsEverything(t *testing.T) {
	r := NewRegistry(1)
	r.Arm("a", Plan{Every: 1, Fail: true})
	r.Arm("b", Plan{Prob: 1, Fail: true})
	r.Reset()
	for _, name := range r.Names() {
		if _, ok := r.Site(name).Fire(); ok {
			t.Fatalf("site %s fired after Reset", name)
		}
	}
}

func TestScoped(t *testing.T) {
	r := NewRegistry(1)
	s := Scoped(r, "r1", "store.write")
	if s.Name() != "r1.store.write" {
		t.Fatalf("scoped name %q", s.Name())
	}
	if Scoped(r, "", "store.write").Name() != "store.write" {
		t.Fatal("empty scope should resolve the bare name")
	}
	r.Arm("r1.store.write", Plan{Every: 1, Fail: true})
	if _, ok := s.Fire(); !ok {
		t.Fatal("scoped site did not see its arm")
	}
	if _, ok := Scoped(r, "r2", "store.write").Fire(); ok {
		t.Fatal("sibling scope fired")
	}
}

// BenchmarkDisarmedFire pins the "injection disabled" cost: one atomic
// load, zero allocations.
func BenchmarkDisarmedFire(b *testing.B) {
	r := NewRegistry(1)
	s := r.Site("hot")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Fire(); ok {
			b.Fatal("fired")
		}
	}
}
