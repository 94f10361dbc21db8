// Durability and sharing tests for the persistent result store: every way a
// record can be damaged — truncation, bit flips, zero-length files, torn
// mid-write temp files, records filed under the wrong key — must read as a
// miss and be repaired by the next write-through; concurrent writers on one
// directory must converge on a single valid record; and the size-cap GC
// must evict oldest-read first. The package is tested from outside
// (store_test) so the round-trip tests can drive real simulations through
// internal/exp, which itself imports the store.
package store_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"swarmhints/internal/bench"
	"swarmhints/internal/exp"
	"swarmhints/internal/store"
	"swarmhints/swarm"
)

func open(t *testing.T, dir string, maxBytes int64) *store.Store {
	t.Helper()
	s, err := store.Open(dir, maxBytes)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestPutGetRoundTrip pins the bytes layer: what goes in comes out, hits
// and misses count, and distinct keys get distinct record files.
func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	if _, ok := s.Get("missing"); ok {
		t.Fatal("empty store served a hit")
	}
	payload := []byte(`{"cycles":42}`)
	if err := s.Put("tiny/7/des/Random/4/false", payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get("tiny/7/des/Random/4/false")
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("round trip: got %q ok=%v", got, ok)
	}
	c := s.Counters()
	if c.Hits != 1 || c.Misses != 1 || c.Writes != 1 || c.Records != 1 {
		t.Fatalf("counters after one miss, one put, one hit: %+v", c)
	}
	if c.Bytes <= int64(len(payload)) {
		t.Fatalf("resident bytes %d should exceed the payload (header on top)", c.Bytes)
	}
}

// TestStatsRoundTripBytesIdentical is the store half of the acceptance
// criterion "byte-identical across compute/memory-cache/disk-store paths":
// a real simulation's statistics, written through and read back, must
// re-snapshot to exactly the payload bytes on disk — including a profiled
// run's classification block and the per-tile counters.
func TestStatsRoundTripBytesIdentical(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	for _, profile := range []bool{false, true} {
		p := exp.Point{Name: "des", Kind: swarm.Hints, Cores: 4, Profile: profile}
		st, err := exp.RunPoint(p, bench.Tiny, 7, true)
		if err != nil {
			t.Fatal(err)
		}
		key := exp.ConfigKey(bench.Tiny, 7, p)
		if err := s.PutStats(key, st); err != nil {
			t.Fatal(err)
		}
		back, ok := s.GetStats(key)
		if !ok {
			t.Fatalf("profile=%v: stored stats missing", profile)
		}
		want, err := json.Marshal(st.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(back.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("profile=%v: store round trip changed the snapshot bytes", profile)
		}
		raw, ok := s.Get(key)
		if !ok || !bytes.Equal(raw, want) {
			t.Errorf("profile=%v: on-disk payload differs from the canonical snapshot bytes", profile)
		}
	}
}

// TestNonSnapshotPayloadIsCorruptMiss: a record whose checksum holds but
// whose payload does not decode as a snapshot is not a result — the
// snapshot reads serve it as a miss and count it corrupt, while the bytes
// layer still returns what was written.
func TestNonSnapshotPayloadIsCorruptMiss(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	key := exp.ConfigKey(bench.Tiny, 7, exp.Point{Name: "des", Kind: swarm.Random, Cores: 1})
	payload := []byte(`{"cycles":"x"}`)
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	if sn, ok := s.GetSnapshot(key); ok {
		t.Fatalf("non-snapshot payload served as a snapshot: %+v", sn)
	}
	if _, ok := s.GetStats(key); ok {
		t.Fatal("non-snapshot payload served as stats")
	}
	c := s.Counters()
	if c.Hits != 0 || c.Misses != 2 || c.Corrupt != 2 {
		t.Fatalf("counters after two undecodable reads: hits=%d misses=%d corrupt=%d, want 0/2/2", c.Hits, c.Misses, c.Corrupt)
	}
	if got, ok := s.Get(key); !ok || !bytes.Equal(got, payload) {
		t.Fatalf("bytes layer: got %q ok=%v, want the checksummed payload", got, ok)
	}
}

// corrupt damages the record file for key with fn and returns its path.
func corrupt(t *testing.T, s *store.Store, key string, fn func([]byte) []byte) string {
	t.Helper()
	path := s.Path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(data), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestDamagedRecordsReadAsMissesAndRepair is the durability satellite:
// truncated, bit-flipped, zero-length, and wrong-key records are misses
// (counted corrupt), and the next write-through repairs them in place.
func TestDamagedRecordsReadAsMissesAndRepair(t *testing.T) {
	const key = "tiny/7/des/Hints/4/false"
	payload := []byte(`{"cycles":7,"cores":4}`)
	cases := []struct {
		name string
		fn   func([]byte) []byte
	}{
		{"zero-length", func([]byte) []byte { return nil }},
		{"truncated-header", func(d []byte) []byte { return d[:10] }},
		{"truncated-payload", func(d []byte) []byte { return d[:len(d)-5] }},
		{"bit-flip", func(d []byte) []byte {
			out := append([]byte(nil), d...)
			out[len(out)-3] ^= 0x40
			return out
		}},
		{"wrong-magic", func(d []byte) []byte { return append([]byte("not-a-store\n"), d...) }},
		{"extra-tail", func(d []byte) []byte { return append(append([]byte(nil), d...), "junk"...) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := open(t, t.TempDir(), 0)
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			corrupt(t, s, key, tc.fn)
			if _, ok := s.Get(key); ok {
				t.Fatal("damaged record served as a hit")
			}
			if c := s.Counters(); c.Corrupt != 1 {
				t.Fatalf("corrupt counter = %d, want 1", c.Corrupt)
			}
			// The next write-through repairs the record wholesale.
			if err := s.Put(key, payload); err != nil {
				t.Fatal(err)
			}
			got, ok := s.Get(key)
			if !ok || !bytes.Equal(got, payload) {
				t.Fatalf("repair failed: got %q ok=%v", got, ok)
			}
		})
	}

	// A record filed under another key's path (hash collision, misplaced
	// file) must also miss: the header carries the full key precisely so
	// content addressing never serves the wrong configuration.
	t.Run("wrong-key", func(t *testing.T) {
		s := open(t, t.TempDir(), 0)
		if err := s.Put("other-key", payload); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(s.Path("other-key"))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(s.Path(key)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(s.Path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, ok := s.Get(key); ok {
			t.Fatal("record for another key served as a hit")
		}
	})
}

// TestMidWriteCrashSimulation leaves a torn temp file where a crashed
// writer would: reads miss, a write-through repairs, and Open sweeps the
// debris once it is stale.
func TestMidWriteCrashSimulation(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, 0)
	const key = "tiny/7/bfs/Random/1/false"
	recDir := filepath.Dir(s.Path(key))
	if err := os.MkdirAll(recDir, 0o755); err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(recDir, ".tmp-9999-1")
	if err := os.WriteFile(tmp, []byte("swarmhints-store.v1\ntiny/7/bfs"), 0o644); err != nil {
		t.Fatal(err)
	}

	if _, ok := s.Get(key); ok {
		t.Fatal("torn temp file observed as a record")
	}
	payload := []byte(`{"cycles":1}`)
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(key); !ok || !bytes.Equal(got, payload) {
		t.Fatal("write-through after a torn write did not serve")
	}

	// Fresh debris survives Open (it could be a live writer elsewhere)...
	if _, err := store.Open(dir, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); err != nil {
		t.Fatalf("fresh temp file swept too early: %v", err)
	}
	// ...stale debris does not.
	old := time.Now().Add(-2 * store.TmpMaxAge)
	if err := os.Chtimes(tmp, old, old); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(dir, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) {
		t.Fatalf("stale temp file not swept by Open: %v", err)
	}
}

// TestConcurrentWritersOneDirectory is the fleet-sharing satellite: two
// store handles (as two swarmd replicas would hold) hammer the same key in
// the same directory; the result must be exactly one valid record whose
// bytes read back identically through both handles, with no temp debris.
func TestConcurrentWritersOneDirectory(t *testing.T) {
	dir := t.TempDir()
	a := open(t, dir, 0)
	b := open(t, dir, 0)
	const key = "tiny/7/mis/LBHints/16/false"
	payload := []byte(strings.Repeat(`{"x":1}`, 64))

	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		s := a
		if i%2 == 1 {
			s = b
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 8; j++ {
				if err := s.Put(key, payload); err != nil {
					t.Error(err)
				}
				if got, ok := s.Get(key); ok && !bytes.Equal(got, payload) {
					t.Error("read-back bytes differ mid-race")
				}
			}
		}()
	}
	wg.Wait()

	ga, oka := a.Get(key)
	gb, okb := b.Get(key)
	if !oka || !okb || !bytes.Equal(ga, gb) || !bytes.Equal(ga, payload) {
		t.Fatal("handles disagree after concurrent writes")
	}
	files := 0
	var recSize int64
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			files++
			if !strings.HasSuffix(path, ".rec") {
				t.Errorf("leftover non-record file %s", path)
			}
			if fi, ferr := d.Info(); ferr == nil {
				recSize = fi.Size()
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files != 1 {
		t.Fatalf("directory holds %d files, want exactly 1 record", files)
	}

	// Exact accounting under same-key racers: the stat→rename window is
	// serialized per path, so across both handles exactly one record — and
	// exactly its on-disk bytes — is counted, no matter how the 128 writes
	// interleaved. Before the fix, two writers could both observe "no
	// previous record" and this sum came out 2 (or more).
	ca, cb := a.Counters(), b.Counters()
	if got := ca.Records + cb.Records; got != 1 {
		t.Errorf("handles count %d records in sum (a=%d b=%d), want exactly 1", got, ca.Records, cb.Records)
	}
	if got := ca.Bytes + cb.Bytes; got != recSize {
		t.Errorf("handles count %d bytes in sum (a=%d b=%d), want exactly %d", got, ca.Bytes, cb.Bytes, recSize)
	}
	if ca.Writes != 64 || cb.Writes != 64 {
		t.Errorf("writes = a:%d b:%d, want 64 each", ca.Writes, cb.Writes)
	}
	if ca.WriteErrors != 0 || cb.WriteErrors != 0 {
		t.Errorf("write errors = a:%d b:%d, want none", ca.WriteErrors, cb.WriteErrors)
	}

	// Creation races are where the window bites hardest: every writer of a
	// fresh key stats a path that does not exist yet, so without the
	// per-path serialization several of them count "new record" for the
	// same file. Hammer many fresh keys with all writers released at once.
	const rounds = 64
	for round := 0; round < rounds; round++ {
		rkey := fmt.Sprintf("race/%d/mis/LBHints/16/false", round)
		start := make(chan struct{})
		for i := 0; i < 16; i++ {
			s := a
			if i%2 == 1 {
				s = b
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				if err := s.Put(rkey, payload); err != nil {
					t.Error(err)
				}
			}()
		}
		close(start)
		wg.Wait()
	}
	var totalSize int64
	files = 0
	err = filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			files++
			fi, ferr := d.Info()
			if ferr != nil {
				return ferr
			}
			totalSize += fi.Size()
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if files != 1+rounds {
		t.Fatalf("directory holds %d files, want %d records", files, 1+rounds)
	}
	ca, cb = a.Counters(), b.Counters()
	if got := ca.Records + cb.Records; got != 1+rounds {
		t.Errorf("handles count %d records in sum (a=%d b=%d), want exactly %d", got, ca.Records, cb.Records, 1+rounds)
	}
	if got := ca.Bytes + cb.Bytes; got != totalSize {
		t.Errorf("handles count %d bytes in sum (a=%d b=%d), want exactly %d", got, ca.Bytes, cb.Bytes, totalSize)
	}

	// A sweep re-synchronizes each handle to the directory's exact
	// contents — the cross-process reconciliation path.
	for _, s := range []*store.Store{a, b} {
		if _, err := s.GC(); err != nil {
			t.Fatal(err)
		}
		if c := s.Counters(); c.Records != 1+rounds || c.Bytes != totalSize {
			t.Errorf("post-GC counters records=%d bytes=%d, want %d/%d", c.Records, c.Bytes, 1+rounds, totalSize)
		}
	}
}

// TestGCEvictsOldestRead pins the size-cap policy: pushing the store past
// its cap evicts the records read longest ago, keeps the rest servable,
// and re-synchronizes the byte accounting.
func TestGCEvictsOldestRead(t *testing.T) {
	dir := t.TempDir()
	payload := []byte(strings.Repeat("x", 256))
	// Generous cap while seeding so nothing evicts early.
	seeder := open(t, dir, 1<<20)
	keys := make([]string, 6)
	base := time.Now().Add(-time.Hour)
	for i := range keys {
		keys[i] = fmt.Sprintf("key-%d", i)
		if err := seeder.Put(keys[i], payload); err != nil {
			t.Fatal(err)
		}
		// Distinct, strictly increasing read times: key-0 is oldest-read.
		ts := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(seeder.Path(keys[i]), ts, ts); err != nil {
			t.Fatal(err)
		}
	}
	perRec := seeder.Counters().Bytes / int64(len(keys))

	// Reopen with a cap that holds ~3 records and trigger GC with a fresh
	// write (which will itself be the most recently written).
	s := open(t, dir, 3*perRec+perRec/2)
	if err := s.Put("key-new", payload); err != nil {
		t.Fatal(err)
	}
	c := s.Counters()
	if c.Evictions == 0 {
		t.Fatal("over-cap store evicted nothing")
	}
	if c.Bytes > s.MaxBytes() {
		t.Fatalf("resident bytes %d exceed cap %d after GC", c.Bytes, s.MaxBytes())
	}
	if _, ok := s.Get(keys[0]); ok {
		t.Error("oldest-read record survived GC")
	}
	if _, ok := s.Get("key-new"); !ok {
		t.Error("freshly written record evicted")
	}
	if _, ok := s.Get(keys[len(keys)-1]); !ok {
		t.Error("most recently read seed record evicted before older ones")
	}
}

// TestOpenRebuildsAccounting checks that a fresh handle on a warm directory
// sees the resident records without any writes of its own.
func TestOpenRebuildsAccounting(t *testing.T) {
	dir := t.TempDir()
	a := open(t, dir, 0)
	for i := 0; i < 4; i++ {
		if err := a.Put(fmt.Sprintf("k%d", i), []byte("payload")); err != nil {
			t.Fatal(err)
		}
	}
	b := open(t, dir, 0)
	if c := b.Counters(); c.Records != 4 || c.Bytes != a.Counters().Bytes {
		t.Fatalf("reopened accounting %+v, want 4 records / %d bytes", c, a.Counters().Bytes)
	}
}

// TestBadKeyRejected: the line-oriented header cannot carry newlines, so
// such keys must fail loudly on write and miss on read.
func TestBadKeyRejected(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	if err := s.Put("a\nb", []byte("x")); err == nil {
		t.Fatal("newline key accepted")
	}
	if _, ok := s.Get("a\nb"); ok {
		t.Fatal("newline key served")
	}
	if c := s.Counters(); c.Corrupt != 0 {
		t.Fatalf("bad key miscounted as corruption: %+v", c)
	}
}

// TestCompressedRecordRoundTrip: a compressible payload is stored deflated
// (the record file is smaller than the payload, the header carries the
// flag in plain text) and reads back byte-identical.
func TestCompressedRecordRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	const key = "tiny/9/des/Hints/64/false"
	payload := []byte(`{"tiles":[` + strings.Repeat(`{"commitCycles":123456,"abortCycles":0},`, 200) + `{}]}`)
	if err := s.Put(key, payload); err != nil {
		t.Fatal(err)
	}
	rec, err := os.ReadFile(s.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	if len(rec) >= len(payload) {
		t.Fatalf("record is %d bytes for a %d-byte compressible payload", len(rec), len(payload))
	}
	lines := bytes.SplitN(rec, []byte("\n"), 4)
	if len(lines) < 4 || !strings.HasSuffix(string(lines[2]), " deflate") {
		t.Fatalf("checksum line %q does not carry the deflate flag", lines[2])
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("compressed round trip: ok=%v, %d bytes back for %d in", ok, len(got), len(payload))
	}
}

// TestLegacyUncompressedRecordReads: records written before compression
// existed — plain payload, two-field checksum line — must keep reading.
func TestLegacyUncompressedRecordReads(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	const key = "tiny/9/des/Random/4/false"
	payload := []byte(`{"cycles":9,` + strings.Repeat(`"x":0,`, 100) + `"cores":4}`)
	sum := sha256.Sum256(payload)
	rec := fmt.Sprintf("%s\n%s\n%d %s\n%s", store.Magic, key, len(payload), hex.EncodeToString(sum[:]), payload)
	path := s.Path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("legacy record unreadable: ok=%v got %d bytes", ok, len(got))
	}
	if c := s.Counters(); c.Corrupt != 0 {
		t.Fatalf("legacy record miscounted as corrupt: %+v", c)
	}
}

// TestUnknownPayloadFlagIsMiss: a record carrying a flag this version does
// not understand reads as a corrupt miss, never as garbage payload bytes.
func TestUnknownPayloadFlagIsMiss(t *testing.T) {
	s := open(t, t.TempDir(), 0)
	const key = "tiny/9/des/Stealing/4/false"
	payload := []byte(`{"cycles":1}`)
	sum := sha256.Sum256(payload)
	rec := fmt.Sprintf("%s\n%s\n%d %s zstd\n%s", store.Magic, key, len(payload), hex.EncodeToString(sum[:]), payload)
	path := s.Path(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key); ok {
		t.Fatal("unknown flag served as a hit")
	}
	if c := s.Counters(); c.Corrupt != 1 {
		t.Fatalf("unknown flag not counted corrupt: %+v", c)
	}
}
