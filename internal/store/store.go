// Package store is the persistent, content-addressed result store shared by
// swarmd, the CLIs, and the experiment harness: one on-disk record per
// simulation configuration, keyed by the same canonical key the in-memory
// caches use (exp.ConfigKey / service.Config.Key), holding the canonical
// metrics.Snapshot export bytes for that configuration. Because a
// configuration fully determines its result, records never change once
// written — the store is a pure cache tier that survives restarts and can be
// shared by a fleet of concurrent replicas.
//
// Durability model: each record is written to a temporary file in the target
// directory, synced, and renamed into place, so readers only ever observe
// absent or complete records on a POSIX filesystem. Every record carries a
// versioned header with its full key and a SHA-256 payload checksum;
// truncated, torn, zero-length, or bit-flipped records fail validation and
// are treated as misses, and the next write-through atomically replaces
// them. Writes are idempotent (same key ⇒ same bytes), which is what makes
// the directory safely shareable between replicas with no locking: the worst
// concurrent outcome is two renames of identical content.
//
// The store is size-bounded: when the resident bytes exceed the configured
// cap, a garbage-collection pass evicts records least recently read first
// (reads touch the record's mtime), until the directory is back under the
// cap. Stale temporary files left by crashed writers are swept by Open and
// by every GC pass once they are older than TmpMaxAge.
//
// Failure hardening: a record that fails validation is quarantined — renamed
// to a .bad sibling — so one corrupt file costs one failed validation, not
// one per lookup forever; the next write-through recreates the record and GC
// reclaims old quarantine files. A disk that fails writes repeatedly trips
// the store into a degraded read-only mode after DegradeAfter consecutive
// write failures: Puts return ErrDegraded without touching the disk (reads
// still serve), and one probe write per ReprobeInterval is let through to
// detect recovery — a healed disk re-enables writes on its next probe. Every
// disk operation passes a fault-injection site (internal/fault: store.read,
// store.write, store.fsync, store.rename, store.torn), which is how the
// chaos suite proves all of the above deterministically.
package store

import (
	"bytes"
	"compress/flate"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"swarmhints/internal/fault"
	"swarmhints/internal/metrics"
	"swarmhints/internal/obs"
	"swarmhints/swarm"
)

// Disk-operation latency histograms (internal/obs), process-wide like the
// span ring: every store handle in the process observes into one family,
// which swarmd renders as swarmd_store_op_duration_seconds on /metrics.
// read covers the whole lookup (file read + validation + inflate), write
// covers the atomic write path end to end, fsync isolates the sync call
// inside it.
var (
	opVec = obs.NewHistVec("swarmd_store_op_duration_seconds",
		"Persistent-store disk operation latency.", "op", nil,
		"read", "write", "fsync")
	histRead  = opVec.With("read")
	histWrite = opVec.With("write")
	histFsync = opVec.With("fsync")
)

// PromOps renders the process-wide store operation-latency histogram
// family for a /metrics endpoint.
func PromOps() metrics.PromMetric { return opVec.Prom() }

// Magic is the first header line of every record file; bump the suffix on
// any layout change so old records read as misses instead of garbage.
const Magic = "swarmhints-store.v1"

// recExt is the record-file extension; everything else in the directory is
// ignored by reads and reclaimed (temp files) or left alone by GC.
const recExt = ".rec"

// tmpPrefix marks in-progress writes. Temp files live in the same directory
// as their record so the final rename never crosses a filesystem boundary.
const tmpPrefix = ".tmp-"

// TmpMaxAge is how old a temporary file must be before Open or GC treats it
// as debris from a crashed writer and removes it. Live writers hold a temp
// file for milliseconds; an hour of slack keeps a slow concurrent replica's
// in-flight write safe.
const TmpMaxAge = time.Hour

// badExt marks quarantined records: a record that failed validation is
// renamed from <name>.rec to <name>.rec.bad so it stops being re-validated
// on every lookup while staying on disk for postmortems. GC reclaims
// quarantine files older than TmpMaxAge.
const badExt = ".bad"

// Degraded-mode defaults (see Options).
const (
	// DefaultDegradeAfter is how many consecutive write failures trip the
	// store into degraded (read-only) mode when Options.DegradeAfter is 0.
	DefaultDegradeAfter = 5
	// DefaultReprobeInterval is how often a degraded store lets one probe
	// write through to detect disk recovery when Options.ReprobeInterval
	// is 0.
	DefaultReprobeInterval = 3 * time.Second
)

// ErrDegraded is returned by Put while the store is in degraded mode: the
// disk failed DegradeAfter consecutive writes, so writes are bypassed (the
// store serves as a read-only tier) until a probe write succeeds.
var ErrDegraded = errors.New("store: degraded (writes bypassed until a probe write succeeds)")

// Counters is a point-in-time snapshot of the store's operational counters.
// Hits+Misses equals the lookups served; Corrupt counts the misses (and
// failed decodes) caused by records that exist but fail validation. Bytes
// and Records track the resident record files; both are exact after Open
// and every GC pass and maintained incrementally in between, so concurrent
// replicas sharing a directory may each undercount the other's writes until
// their next GC.
type Counters struct {
	Hits          uint64 `prom:"swarmd_store_hits_total,counter" help:"Requests answered from the persistent result store."`
	Misses        uint64 `prom:"swarmd_store_misses_total,counter" help:"Persistent-store lookups that found no valid record."`
	Writes        uint64 `prom:"swarmd_store_writes_total,counter" help:"Results written through to the persistent store."`
	Corrupt       uint64 `prom:"swarmd_store_corrupt_total,counter" help:"Store records rejected as truncated or corrupt (served as misses)."`
	Evictions     uint64 `prom:"swarmd_store_evictions_total,counter" help:"Store records evicted by the size-cap GC."`
	WriteErrors   uint64 `prom:"swarmd_store_write_errors_total,counter" help:"Failed store write-throughs (store degraded to a read tier)."`
	GCErrors      uint64 `prom:"swarmd_store_gc_errors_total,counter" help:"Store eviction failures: records the GC pass skipped (size cap enforcement degraded)."`
	Quarantined   uint64 `prom:"swarmd_store_quarantined_total,counter" help:"Corrupt store records quarantined to .bad files."`
	Degraded      bool   `prom:"swarmd_store_degraded,gauge" help:"1 while the store is in degraded (read-only) mode."`
	DegradeTrips  uint64 `prom:"swarmd_store_degraded_trips_total,counter" help:"Times consecutive write failures tripped the store into degraded mode."`
	DegradedSkips uint64 `prom:"swarmd_store_degraded_skips_total,counter" help:"Write-throughs skipped while the store was degraded."`
	Bytes         int64  `prom:"swarmd_store_bytes,gauge" help:"Resident record bytes in the persistent store."`
	Records       int64  `prom:"swarmd_store_records,gauge" help:"Resident records in the persistent store."`
}

// Store is one handle on a result-store directory. Handles are safe for
// concurrent use, and any number of handles (in any number of processes) may
// share one directory.
type Store struct {
	dir          string
	maxBytes     int64
	degradeAfter int
	reprobe      time.Duration

	hits          atomic.Uint64
	misses        atomic.Uint64
	writes        atomic.Uint64
	corrupt       atomic.Uint64
	evictions     atomic.Uint64
	writeErrors   atomic.Uint64
	gcErrors      atomic.Uint64
	quarantined   atomic.Uint64
	degradeTrips  atomic.Uint64
	degradedSkips atomic.Uint64
	bytes         atomic.Int64
	records       atomic.Int64

	// Degraded-mode state: consecutive write failures trip degraded; while
	// set, nextProbe rations one write attempt per reprobe interval.
	consecWriteFails atomic.Int64
	degraded         atomic.Bool
	nextProbe        atomic.Int64 // unix nanos of the next allowed probe write

	// Fault-injection sites on every disk operation (no-ops unless a test
	// or the -fault flag arms them).
	siteRead, siteWrite, siteFsync, siteRename, siteTorn, siteGCRemove *fault.Site

	gcMu sync.Mutex // one GC pass at a time per handle
}

// tmpSeq distinguishes concurrent in-process writers; together with the pid
// in the temp-file name it makes every in-flight write's name unique, so
// replicas (processes) and handles (goroutines) never collide.
var tmpSeq atomic.Uint64

// renameMu serializes the stat → rename → account window of writeFile per
// record path, across every handle in this process. Without it, two
// concurrent same-key writers can both observe "no previous record" before
// either renames, and both count the record — double-counting records and
// bytes until the next GC resweep. Striped by path hash and package-level
// (not per-handle) because distinct Store handles on one directory are the
// common same-key racers. Cross-process writers remain unserialized; that
// skew is bounded and reconciled exactly by the next sweep, as documented
// on Counters.
var renameMu [64]sync.Mutex

// renameLock returns the stripe lock for a record path.
func renameLock(path string) *sync.Mutex {
	h := uint32(2166136261)
	for i := 0; i < len(path); i++ {
		h = (h ^ uint32(path[i])) * 16777619
	}
	return &renameMu[h%uint32(len(renameMu))]
}

// Options tunes a store handle beyond the directory itself.
type Options struct {
	// MaxBytes caps the resident record bytes (0 = unbounded).
	MaxBytes int64
	// DegradeAfter is how many consecutive write failures trip degraded
	// (read-only) mode. 0 = DefaultDegradeAfter; negative disables
	// degraded mode entirely.
	DegradeAfter int
	// ReprobeInterval is how often a degraded store lets one probe write
	// through to detect recovery (0 = DefaultReprobeInterval).
	ReprobeInterval time.Duration
	// FaultScope prefixes this handle's fault-site names (fault.Scoped),
	// so a test hosting several replicas in one process can target one
	// replica's disk. Empty = the bare store.* sites.
	FaultScope string
}

// Open opens (creating if needed) the store rooted at dir. maxBytes caps the
// resident record bytes (0 = unbounded); the cap is enforced by evicting the
// least recently read records after writes that exceed it. Open scans the
// directory once to initialize the byte/record accounting and to sweep
// stale temporary files left by crashed writers.
func Open(dir string, maxBytes int64) (*Store, error) {
	return OpenWith(dir, Options{MaxBytes: maxBytes})
}

// OpenWith is Open with full Options.
func OpenWith(dir string, opt Options) (*Store, error) {
	if dir == "" {
		return nil, errors.New("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if opt.DegradeAfter == 0 {
		opt.DegradeAfter = DefaultDegradeAfter
	}
	if opt.ReprobeInterval <= 0 {
		opt.ReprobeInterval = DefaultReprobeInterval
	}
	s := &Store{
		dir:          dir,
		maxBytes:     opt.MaxBytes,
		degradeAfter: opt.DegradeAfter,
		reprobe:      opt.ReprobeInterval,
		siteRead:     fault.Scoped(fault.Default, opt.FaultScope, "store.read"),
		siteWrite:    fault.Scoped(fault.Default, opt.FaultScope, "store.write"),
		siteFsync:    fault.Scoped(fault.Default, opt.FaultScope, "store.fsync"),
		siteRename:   fault.Scoped(fault.Default, opt.FaultScope, "store.rename"),
		siteTorn:     fault.Scoped(fault.Default, opt.FaultScope, "store.torn"),
		siteGCRemove: fault.Scoped(fault.Default, opt.FaultScope, "store.gc.remove"),
	}
	if _, _, err := s.sweep(0); err != nil {
		return nil, fmt.Errorf("store: scanning %s: %w", dir, err)
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// MaxBytes returns the configured size cap (0 = unbounded).
func (s *Store) MaxBytes() int64 { return s.maxBytes }

// Path returns the record path for a key: two levels of fan-out derived
// from the SHA-256 of the key, so arbitrarily large stores keep directory
// listings small and the layout is stable across versions.
func (s *Store) Path(key string) string {
	sum := sha256.Sum256([]byte(key))
	h := hex.EncodeToString(sum[:])
	return filepath.Join(s.dir, h[:2], h[2:]+recExt)
}

// flagDeflate on the checksum line marks a deflate-compressed payload. The
// header stays plain text either way, and the length + SHA-256 always
// describe the stored (possibly compressed) bytes, so a record validates
// fully before any inflation runs.
const flagDeflate = "deflate"

// deflatePayload compresses payload, returning nil when compression would
// not shrink it (already-dense or tiny payloads stay plain). Deflate at a
// fixed level is deterministic, preserving the store's idempotent-write
// guarantee: same key ⇒ same record bytes.
func deflatePayload(payload []byte) []byte {
	var b bytes.Buffer
	zw, err := flate.NewWriter(&b, flate.DefaultCompression)
	if err != nil {
		return nil
	}
	if _, err := zw.Write(payload); err != nil {
		return nil
	}
	if err := zw.Close(); err != nil {
		return nil
	}
	if b.Len() >= len(payload) {
		return nil
	}
	return b.Bytes()
}

// encodeRecord assembles the on-disk record: a three-line header (magic,
// full key, payload length + SHA-256, plus a compression flag when the
// payload deflates smaller) followed by the payload bytes. Snapshot JSON
// compresses several-fold, so more configurations fit under a shared
// directory's -store-max-bytes cap.
func encodeRecord(key string, payload []byte) []byte {
	flag := ""
	if z := deflatePayload(payload); z != nil {
		payload, flag = z, " "+flagDeflate
	}
	sum := sha256.Sum256(payload)
	var b bytes.Buffer
	b.Grow(len(Magic) + len(key) + len(payload) + 96)
	fmt.Fprintf(&b, "%s\n%s\n%d %s%s\n", Magic, key, len(payload), hex.EncodeToString(sum[:]), flag)
	b.Write(payload)
	return b.Bytes()
}

// decodeRecord validates a record file's bytes against the expected key and
// returns the payload. Any violation — wrong magic, wrong key (a hash
// collision or a misplaced file), bad length, checksum mismatch — is an
// error the callers translate into a miss.
func decodeRecord(data []byte, key string) ([]byte, error) {
	rest := data
	next := func() (string, error) {
		i := bytes.IndexByte(rest, '\n')
		if i < 0 {
			return "", errors.New("truncated header")
		}
		line := string(rest[:i])
		rest = rest[i+1:]
		return line, nil
	}
	magic, err := next()
	if err != nil {
		return nil, err
	}
	if magic != Magic {
		return nil, fmt.Errorf("bad magic %q", magic)
	}
	gotKey, err := next()
	if err != nil {
		return nil, err
	}
	if gotKey != key {
		return nil, fmt.Errorf("record holds key %q", gotKey)
	}
	sums, err := next()
	if err != nil {
		return nil, err
	}
	fields := strings.Fields(sums)
	if len(fields) != 2 && len(fields) != 3 {
		return nil, fmt.Errorf("bad checksum line %q", sums)
	}
	n, err := strconv.Atoi(fields[0])
	if err != nil {
		return nil, fmt.Errorf("bad checksum line %q", sums)
	}
	compressed := false
	if len(fields) == 3 {
		if fields[2] != flagDeflate {
			return nil, fmt.Errorf("unknown payload flag %q", fields[2])
		}
		compressed = true
	}
	if n != len(rest) {
		return nil, fmt.Errorf("payload is %d bytes, header says %d", len(rest), n)
	}
	sum := sha256.Sum256(rest)
	if hex.EncodeToString(sum[:]) != fields[1] {
		return nil, errors.New("payload checksum mismatch")
	}
	if !compressed {
		return rest, nil
	}
	zr := flate.NewReader(bytes.NewReader(rest))
	payload, err := io.ReadAll(zr)
	if err == nil {
		err = zr.Close()
	}
	if err != nil {
		return nil, fmt.Errorf("inflating payload: %w", err)
	}
	return payload, nil
}

// errBadKey rejects keys the line-oriented header cannot carry. Canonical
// configuration keys never contain newlines; this guards against misuse.
var errBadKey = errors.New("store: key contains a newline")

// corruptError marks a validation failure — a record that exists but fails
// decodeRecord — as distinct from an I/O failure. Only validation failures
// quarantine the file: an injected or transient read error must never
// banish a healthy record.
type corruptError struct{ err error }

func (e *corruptError) Error() string { return e.err.Error() }
func (e *corruptError) Unwrap() error { return e.err }

// read loads and validates the record for key without touching counters.
// A missing record returns fs.ErrNotExist; anything else invalid returns a
// descriptive error.
func (s *Store) read(key string) ([]byte, error) {
	if strings.ContainsRune(key, '\n') {
		return nil, errBadKey
	}
	if f, ok := s.siteRead.Fire(); ok && f.Err != nil {
		return nil, f.Err
	}
	t := obs.StartTimer()
	defer t.Observe(histRead)
	data, err := os.ReadFile(s.Path(key))
	if err != nil {
		return nil, err
	}
	payload, err := decodeRecord(data, key)
	if err != nil {
		return nil, &corruptError{err}
	}
	return payload, nil
}

// finish translates a read's outcome into counters and the (payload, ok)
// shape: valid records count a hit and touch the record's read time (the
// GC's eviction clock); everything else counts a miss, with validation
// failures additionally counted as corrupt and the failing file
// quarantined to a .bad sibling so it is validated once, not forever.
func (s *Store) finish(key string, payload []byte, err error) ([]byte, bool) {
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) && !errors.Is(err, errBadKey) {
			s.corrupt.Add(1)
			var ce *corruptError
			if errors.As(err, &ce) {
				s.quarantine(key)
			}
		}
		s.misses.Add(1)
		return nil, false
	}
	s.hits.Add(1)
	now := time.Now()
	_ = os.Chtimes(s.Path(key), now, now) // best effort: eviction recency only
	return payload, true
}

// Get returns the stored payload for key. Missing, truncated, or corrupt
// records are misses; a hit refreshes the record's eviction recency.
func (s *Store) Get(key string) ([]byte, bool) {
	payload, err := s.read(key)
	return s.finish(key, payload, err)
}

// quarantine renames key's record to its .bad sibling after re-validating
// under the per-path rename lock — a concurrent Put may have just replaced
// the corrupt file with a fresh record, which must not be banished. The
// accounting drops the file like an eviction would; GC reclaims old .bad
// files by age.
func (s *Store) quarantine(key string) {
	path := s.Path(key)
	mu := renameLock(path)
	mu.Lock()
	defer mu.Unlock()
	data, err := os.ReadFile(path)
	if err != nil {
		return // already gone (evicted, repaired elsewhere, or racing)
	}
	if _, derr := decodeRecord(data, key); derr == nil {
		return // repaired between the failed read and now
	}
	if err := os.Rename(path, path+badExt); err != nil {
		return // transient; the next failed validation retries
	}
	s.quarantined.Add(1)
	s.records.Add(-1)
	s.bytes.Add(-int64(len(data)))
	slog.Warn("store record quarantined",
		"component", "store", "key", key, "path", path+badExt, "bytes", len(data))
}

// Put writes the payload for key: temp file in the record's directory,
// sync, atomic rename. An existing record — valid or corrupt — is replaced
// wholesale, which is also how damaged records are repaired by the next
// write-through. When the write pushes the store past its size cap, a GC
// pass runs before returning.
//
// While the store is degraded (DegradeAfter consecutive write failures),
// Put bypasses the disk and returns ErrDegraded, except for one rationed
// probe write per ReprobeInterval; a probe success lifts the degradation.
func (s *Store) Put(key string, payload []byte) error {
	if strings.ContainsRune(key, '\n') {
		s.writeErrors.Add(1)
		return errBadKey
	}
	if s.degraded.Load() && !s.probeAllowed() {
		s.degradedSkips.Add(1)
		return ErrDegraded
	}
	rec := encodeRecord(key, payload)
	path := s.Path(key)
	wt := obs.StartTimer()
	err := s.writeFile(path, rec)
	wt.Observe(histWrite)
	if err != nil {
		s.writeErrors.Add(1)
		s.noteWriteFailure()
		return fmt.Errorf("store: %w", err)
	}
	s.noteWriteSuccess()
	s.writes.Add(1)
	if s.maxBytes > 0 && s.bytes.Load() > s.maxBytes {
		// The record is durably in place; a failed collection pass must not
		// report the write as failed. It is counted (GCErrors) so a cap that
		// silently stopped being enforced is observable.
		if _, _, err := s.sweep(s.maxBytes); err != nil {
			s.gcErrors.Add(1)
		}
	}
	return nil
}

// probeAllowed rations degraded-mode probe writes: at most one attempt per
// ReprobeInterval wins the CAS and goes to the disk; everyone else bypasses.
func (s *Store) probeAllowed() bool {
	now := time.Now().UnixNano()
	next := s.nextProbe.Load()
	if now < next {
		return false
	}
	return s.nextProbe.CompareAndSwap(next, now+s.reprobe.Nanoseconds())
}

// noteWriteFailure advances the consecutive-failure count and trips
// degraded mode at the threshold.
func (s *Store) noteWriteFailure() {
	n := s.consecWriteFails.Add(1)
	if s.degradeAfter > 0 && n >= int64(s.degradeAfter) && s.degraded.CompareAndSwap(false, true) {
		s.degradeTrips.Add(1)
		s.nextProbe.Store(time.Now().Add(s.reprobe).UnixNano())
		slog.Error("store tripped into degraded (read-only) mode",
			"component", "store", "dir", s.dir,
			"consecutiveWriteFailures", n, "reprobeInterval", s.reprobe)
	}
}

// noteWriteSuccess resets the failure streak and lifts degraded mode — a
// successful probe write is the recovery signal.
func (s *Store) noteWriteSuccess() {
	s.consecWriteFails.Store(0)
	if s.degraded.CompareAndSwap(true, false) {
		slog.Info("store degraded mode lifted by a successful probe write",
			"component", "store", "dir", s.dir)
	}
}

// writeFile is the atomic write: unique temp name (pid + per-handle
// sequence, so concurrent replicas never collide), sync before rename so a
// crash after rename cannot leave a hole-filled record. The write, fsync,
// and rename steps each pass a fault site; the torn site truncates what
// reaches the disk while the rename still lands — the classic torn write
// the validation layer must catch.
func (s *Store) writeFile(path string, rec []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if f, ok := s.siteWrite.Fire(); ok && f.Err != nil {
		return f.Err
	}
	if _, ok := s.siteTorn.Fire(); ok {
		rec = rec[:len(rec)/2] // the fired outcome is the truncation itself
	}
	tmp := filepath.Join(dir, fmt.Sprintf("%s%d-%d", tmpPrefix, os.Getpid(), tmpSeq.Add(1)))
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(rec)
	if err == nil {
		ft := obs.StartTimer()
		err = f.Sync()
		ft.Observe(histFsync)
		if ff, ok := s.siteFsync.Fire(); ok && ff.Err != nil && err == nil {
			err = ff.Err
		}
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		if ff, ok := s.siteRename.Fire(); ok && ff.Err != nil {
			err = ff.Err
		}
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	// Stat (what did this write replace?), rename, and the counter update
	// must be one atomic step per path: see renameMu. The accounting is
	// exact for any number of handles in this process; only other
	// processes' writes stay invisible until the next sweep.
	mu := renameLock(path)
	mu.Lock()
	defer mu.Unlock()
	var prev int64
	hadPrev := false
	if fi, serr := os.Stat(path); serr == nil {
		prev, hadPrev = fi.Size(), true
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	if !hadPrev {
		s.records.Add(1)
	}
	s.bytes.Add(int64(len(rec)) - prev)
	return nil
}

// GetSnapshot returns the stored result for key decoded into its
// machine-readable snapshot. A record whose checksum holds but whose
// payload does not decode as a snapshot counts as a corrupt miss.
func (s *Store) GetSnapshot(key string) (*metrics.Snapshot, bool) {
	payload, err := s.read(key)
	var sn metrics.Snapshot
	if err == nil {
		if uerr := json.Unmarshal(payload, &sn); uerr != nil {
			err = fmt.Errorf("record payload: %w", uerr)
		}
	}
	if _, ok := s.finish(key, payload, err); !ok {
		return nil, false
	}
	return &sn, true
}

// PutStats writes a run's result through as its canonical metrics.Snapshot
// export bytes — the same compact JSON encoding the NDJSON sweep stream
// uses for a record's stats object.
func (s *Store) PutStats(key string, st *swarm.Stats) error {
	payload, err := json.Marshal(st.Snapshot())
	if err != nil {
		s.writeErrors.Add(1)
		return fmt.Errorf("store: encoding %s: %w", key, err)
	}
	return s.Put(key, payload)
}

// Counters snapshots the operational counters.
func (s *Store) Counters() Counters {
	return Counters{
		Hits:          s.hits.Load(),
		Misses:        s.misses.Load(),
		Writes:        s.writes.Load(),
		Corrupt:       s.corrupt.Load(),
		Evictions:     s.evictions.Load(),
		WriteErrors:   s.writeErrors.Load(),
		GCErrors:      s.gcErrors.Load(),
		Quarantined:   s.quarantined.Load(),
		Degraded:      s.degraded.Load(),
		DegradeTrips:  s.degradeTrips.Load(),
		DegradedSkips: s.degradedSkips.Load(),
		Bytes:         s.bytes.Load(),
		Records:       s.records.Load(),
	}
}

// Degraded reports whether the store is currently in degraded (read-only)
// mode.
func (s *Store) Degraded() bool { return s.degraded.Load() }

// GC runs one collection pass against the configured cap and returns how
// many records it evicted. It also re-synchronizes the byte/record
// accounting with the directory (which another replica may have grown) and
// sweeps stale temp files. Put triggers it automatically; it is exported
// for operational tooling and tests.
func (s *Store) GC() (evicted int, err error) {
	evicted, _, err = s.sweep(s.maxBytes)
	if err != nil {
		s.gcErrors.Add(1)
	}
	return evicted, err
}

// storeRec is one record file seen by a sweep.
type storeRec struct {
	path  string
	size  int64
	mtime time.Time
}

// sweep walks the directory, reclaims stale temp files, rebuilds the exact
// byte/record accounting, and — when cap > 0 — evicts least-recently-read
// records until the resident bytes fit the cap. Ties on read time break by
// path so concurrent replicas converge on the same eviction order.
func (s *Store) sweep(limit int64) (evicted int, total int64, err error) {
	s.gcMu.Lock()
	defer s.gcMu.Unlock()

	var recs []storeRec
	staleBefore := time.Now().Add(-TmpMaxAge)
	walkErr := filepath.WalkDir(s.dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			// A concurrently evicted file or directory is not a failure.
			if errors.Is(err, fs.ErrNotExist) {
				return nil
			}
			return err
		}
		if d.IsDir() {
			return nil
		}
		name := d.Name()
		switch {
		case strings.HasPrefix(name, tmpPrefix), strings.HasSuffix(name, badExt):
			// Crashed writers' debris and old quarantined records are both
			// reclaimed by age; fresh .bad files stay for postmortems.
			if fi, ierr := d.Info(); ierr == nil && fi.ModTime().Before(staleBefore) {
				_ = os.Remove(path)
			}
		case strings.HasSuffix(name, recExt):
			fi, ierr := d.Info()
			if ierr != nil {
				return nil // raced with an eviction
			}
			recs = append(recs, storeRec{path: path, size: fi.Size(), mtime: fi.ModTime()})
		}
		return nil
	})
	if walkErr != nil {
		return 0, 0, walkErr
	}
	for _, r := range recs {
		total += r.size
	}
	if limit > 0 && total > limit {
		sort.Slice(recs, func(i, j int) bool {
			if !recs[i].mtime.Equal(recs[j].mtime) {
				return recs[i].mtime.Before(recs[j].mtime)
			}
			return recs[i].path < recs[j].path
		})
		for _, r := range recs {
			if total <= limit {
				break
			}
			rmErr := error(nil)
			if f, ok := s.siteGCRemove.Fire(); ok && f.Err != nil {
				rmErr = f.Err
			} else {
				rmErr = os.Remove(r.path)
			}
			if rmErr != nil && !errors.Is(rmErr, fs.ErrNotExist) {
				// One uncooperative record must not abort the pass: count it
				// (the cap may be under-enforced) and keep evicting others;
				// the next pass retries it.
				s.gcErrors.Add(1)
				continue
			}
			total -= r.size
			evicted++
		}
	}
	s.bytes.Store(total)
	s.records.Store(int64(len(recs) - evicted))
	s.evictions.Add(uint64(evicted))
	return evicted, total, nil
}
