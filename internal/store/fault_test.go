// Fault-injection tests for the store's hardening layers: injected write,
// fsync, rename, and torn-write failures on the disk path; degraded-mode
// trip, rationed probe writes, and recovery; quarantine of validation
// failures (and only validation failures — injected read errors must not
// banish healthy records); and per-record GC eviction failures counting
// without aborting the pass. All sites live in fault.Default, so every test
// defers a Reset.
package store_test

import (
	"errors"
	"os"
	"testing"
	"time"

	"swarmhints/internal/fault"
	"swarmhints/internal/store"
)

func openWith(t *testing.T, dir string, opt store.Options) *store.Store {
	t.Helper()
	s, err := store.OpenWith(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestInjectedWriteFsyncRenameFailures(t *testing.T) {
	defer fault.Default.Reset()
	s := openWith(t, t.TempDir(), store.Options{})

	for _, site := range []string{"store.write", "store.fsync", "store.rename"} {
		fault.Default.Arm(site, fault.Plan{Every: 1, Times: 1, Fail: true})
		if err := s.Put("k-"+site, []byte("payload")); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("Put with %s armed: %v, want ErrInjected", site, err)
		}
		// The site's Times cap is exhausted: the retry lands.
		if err := s.Put("k-"+site, []byte("payload")); err != nil {
			t.Fatalf("Put after %s exhausted: %v", site, err)
		}
		if got, ok := s.Get("k-" + site); !ok || string(got) != "payload" {
			t.Fatalf("Get after repaired %s: %q ok=%v", site, got, ok)
		}
	}
	if c := s.Counters(); c.WriteErrors != 3 {
		t.Fatalf("WriteErrors = %d, want 3", c.WriteErrors)
	}
	// No failed write leaves temp debris behind.
	ents, err := os.ReadDir(s.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.Name()[0] == '.' {
			t.Fatalf("temp debris after injected failures: %s", e.Name())
		}
	}
}

func TestTornWriteQuarantinedOnRead(t *testing.T) {
	defer fault.Default.Reset()
	s := openWith(t, t.TempDir(), store.Options{})

	fault.Default.Arm("store.torn", fault.Plan{Every: 1, Times: 1})
	if err := s.Put("torn", []byte("full payload bytes")); err != nil {
		t.Fatalf("torn Put should land its rename: %v", err)
	}
	if _, err := os.Stat(s.Path("torn")); err != nil {
		t.Fatalf("torn record missing: %v", err)
	}
	// The half-written record fails validation: a miss, and the file is
	// quarantined to its .bad sibling instead of being re-validated forever.
	if _, ok := s.Get("torn"); ok {
		t.Fatal("torn record read as a hit")
	}
	if _, err := os.Stat(s.Path("torn")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("torn record still in place after quarantine: %v", err)
	}
	if _, err := os.Stat(s.Path("torn") + ".bad"); err != nil {
		t.Fatalf("quarantined .bad file missing: %v", err)
	}
	c := s.Counters()
	if c.Corrupt != 1 || c.Quarantined != 1 || c.Records != 0 || c.Bytes != 0 {
		t.Fatalf("counters after quarantine: %+v", c)
	}
	// The next write-through recreates the record cleanly.
	if err := s.Put("torn", []byte("full payload bytes")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("torn"); !ok || string(got) != "full payload bytes" {
		t.Fatalf("repaired record: %q ok=%v", got, ok)
	}
}

func TestInjectedReadErrorDoesNotQuarantine(t *testing.T) {
	defer fault.Default.Reset()
	s := openWith(t, t.TempDir(), store.Options{})
	if err := s.Put("k", []byte("healthy")); err != nil {
		t.Fatal(err)
	}
	fault.Default.Arm("store.read", fault.Plan{Every: 1, Times: 1, Fail: true})
	if _, ok := s.Get("k"); ok {
		t.Fatal("injected read error served a hit")
	}
	// A transient I/O failure is a miss, never a verdict on the record: the
	// file must still be in place and readable once the fault passes.
	if _, err := os.Stat(s.Path("k")); err != nil {
		t.Fatalf("healthy record quarantined by an injected read error: %v", err)
	}
	if got, ok := s.Get("k"); !ok || string(got) != "healthy" {
		t.Fatalf("record after transient read error: %q ok=%v", got, ok)
	}
	if c := s.Counters(); c.Quarantined != 0 {
		t.Fatalf("Quarantined = %d, want 0", c.Quarantined)
	}
}

func TestDegradedModeTripProbeRecover(t *testing.T) {
	defer fault.Default.Reset()
	s := openWith(t, t.TempDir(), store.Options{
		DegradeAfter:    2,
		ReprobeInterval: 30 * time.Millisecond,
	})

	// Two consecutive write failures trip degraded mode.
	fault.Default.Arm("store.write", fault.Plan{Every: 1, Fail: true})
	for i := 0; i < 2; i++ {
		if err := s.Put("k", []byte("v")); !errors.Is(err, fault.ErrInjected) {
			t.Fatalf("write %d: %v, want ErrInjected", i, err)
		}
	}
	if !s.Degraded() {
		t.Fatal("store not degraded after DegradeAfter consecutive failures")
	}
	// While degraded, writes bypass the disk entirely. The write site is
	// still armed to fail every hit, so a Put that reached the disk path
	// would count a write error.
	before := s.Counters().WriteErrors
	skips := 0
	for i := 0; i < 5; i++ {
		if err := s.Put("k", []byte("v")); errors.Is(err, store.ErrDegraded) {
			skips++
		}
	}
	if skips != 5 {
		t.Fatalf("degraded skips = %d, want 5 (probe leaked inside the interval)", skips)
	}
	if after := s.Counters().WriteErrors; after != before {
		t.Fatalf("degraded Puts reached the disk path: %d write errors -> %d", before, after)
	}
	c := s.Counters()
	if c.DegradeTrips != 1 || c.DegradedSkips != 5 || !c.Degraded {
		t.Fatalf("counters while degraded: %+v", c)
	}

	// Disk recovers; after the reprobe interval one probe write goes
	// through, succeeds, and lifts the degradation.
	fault.Default.Reset()
	deadline := time.Now().Add(5 * time.Second)
	for s.Degraded() {
		if time.Now().After(deadline) {
			t.Fatal("store never recovered after the fault cleared")
		}
		time.Sleep(10 * time.Millisecond)
		_ = s.Put("k", []byte("recovered"))
	}
	if err := s.Put("k2", []byte("post-recovery")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get("k2"); !ok || string(got) != "post-recovery" {
		t.Fatalf("post-recovery Get: %q ok=%v", got, ok)
	}
}

func TestGCEvictionFailureSkipsAndCounts(t *testing.T) {
	defer fault.Default.Reset()
	dir := t.TempDir()
	w := openWith(t, dir, store.Options{}) // unbounded: Puts never auto-GC

	payload := make([]byte, 256)
	keys := []string{"a", "b", "c", "d"}
	for i, k := range keys {
		if err := w.Put(k, payload); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes give the sweep a stable eviction order.
		old := time.Now().Add(time.Duration(i-10) * time.Minute)
		if err := os.Chtimes(w.Path(k), old, old); err != nil {
			t.Fatal(err)
		}
	}
	s := openWith(t, dir, store.Options{MaxBytes: 1}) // everything is over cap
	base := s.Counters().GCErrors

	// The first eviction of the pass fails; the pass must skip it, count
	// it, and keep evicting the rest.
	fault.Default.Arm("store.gc.remove", fault.Plan{Every: 1, Times: 1, Fail: true})
	evicted, err := s.GC()
	if err != nil {
		t.Fatalf("GC aborted on a single uncooperative record: %v", err)
	}
	if evicted != len(keys)-1 {
		t.Fatalf("evicted %d, want %d (skip one, evict the rest)", evicted, len(keys)-1)
	}
	if got := s.Counters().GCErrors - base; got != 1 {
		t.Fatalf("GCErrors advanced by %d, want 1", got)
	}
	// The survivor is the record whose removal failed — the oldest.
	if _, err := os.Stat(s.Path("a")); err != nil {
		t.Fatalf("skipped record should survive: %v", err)
	}
	// The next pass retries and clears it.
	if evicted, err = s.GC(); err != nil || evicted != 1 {
		t.Fatalf("retry pass: evicted=%d err=%v", evicted, err)
	}
}

func TestScopedFaultTargetsOneHandle(t *testing.T) {
	defer fault.Default.Reset()
	s1 := openWith(t, t.TempDir(), store.Options{FaultScope: "r1"})
	s2 := openWith(t, t.TempDir(), store.Options{FaultScope: "r2"})

	fault.Default.Arm("r1.store.write", fault.Plan{Every: 1, Fail: true})
	if err := s1.Put("k", []byte("v")); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("scoped handle unaffected: %v", err)
	}
	if err := s2.Put("k", []byte("v")); err != nil {
		t.Fatalf("sibling scope hit by r1's fault: %v", err)
	}
}
