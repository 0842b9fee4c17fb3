// Package store is a persistent, content-addressed artifact store: the
// disk layer behind warm-starting certification baselines across
// processes. Artifacts are opaque byte payloads filed under 128-bit
// content keys (32 lowercase hex digits, produced by mc.ExplorationKey) in
// two-level sharded directories:
//
//	<dir>/<key[:2]>/<key>.art    one artifact per file
//	<dir>/tmp/                   in-flight writes (atomically renamed in)
//	<dir>/quarantine/            entries that failed integrity or decoding
//
// Every entry is framed with a magic+version header, the payload length
// and a checksum; Get verifies all three, so a truncated, bit-flipped or
// foreign file degrades to a cache miss — never to wrong data — and the
// offending file is moved to quarantine/ for post-mortem instead of being
// served again. Writes go through a temp file plus rename, so readers
// (including concurrent processes sharing the directory) only ever observe
// complete entries. A size-bounded GC evicts oldest-first, and hit/miss/
// evict/quarantine counters feed the warm-vs-cold reporting of the
// experiment harness and the fencecache CLI.
//
// All disk access routes through an fsx.FS (the real OS by default, a
// seeded fault injector in the chaos suite), and transient failures on
// the read and write paths are retried under a bounded-backoff policy
// (fsx.RetryPolicy); retries and give-ups are metered, and failures that
// survive the retries degrade — to a miss, to an error the caller turns
// into an uncached run — never to wrong data.
//
// Open memoizes one Store per directory process-wide, so every session
// certifying against the same cache shares one handle and one set of
// counters. Opens with a private FS (OpenConfig) bypass the memo: they
// model a separate process with its own fault schedule.
package store

import (
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fenceplace/internal/fsx"
	"fenceplace/internal/telemetry"
)

// Process-wide store metrics in the default telemetry registry: the sum
// over every open store, feeding the -metrics dumps and the expvar
// export. Per-directory counters live in each Store's private registry
// (see Store.Snapshot); Stats reads those, so warm-vs-cold deltas remain
// attributable to one cache directory.
var (
	gHits          = telemetry.NewCounter("store.hits")
	gMisses        = telemetry.NewCounter("store.misses")
	gPuts          = telemetry.NewCounter("store.puts")
	gEvicted       = telemetry.NewCounter("store.evictions")
	gQuarantined   = telemetry.NewCounter("store.quarantines")
	gCleanupErrors = telemetry.NewCounter("store.cleanup_errors")
	gIORetries     = telemetry.NewCounter("store.io_retries")
	gIOGiveups     = telemetry.NewCounter("store.io_giveups")
	gEntryBytes    = telemetry.NewHistogram("store.entry_bytes")
)

const (
	suffix        = ".art"
	tmpDirName    = "tmp"
	quarDirName   = "quarantine"
	headerSize    = 4 + 8 + 8 // magic+version, payload length, checksum
	formatVersion = 1
)

// magic heads every entry file; the fourth byte is the format version.
var magic = [4]byte{'F', 'P', 'S', formatVersion}

// Config tunes how a Store (or Spill session) touches the disk. The zero
// value is production behavior: the real OS, default retries.
type Config struct {
	// FS is the filesystem the store routes every operation through; nil
	// means the real OS. A non-nil FS makes OpenConfig return a private,
	// non-memoized handle — the seam the chaos suite injects faults
	// through, and a way to model a second process sharing the directory.
	FS fsx.FS
	// Retries bounds how often a transiently failing operation is
	// re-attempted: 0 means the fsx default (2), negative disables
	// retrying.
	Retries int
}

// Stats is a snapshot of a store's counters. Counters are per-process and
// cumulative since Open; Sub produces the delta over a window.
type Stats struct {
	Hits          int64 // Get served a verified entry
	Misses        int64 // Get found nothing usable (absent, corrupt, invalid key)
	Puts          int64 // entries written
	Evicted       int64 // entries removed by GC
	Quarantined   int64 // entries moved aside after failing integrity/decoding
	CleanupErrors int64 // best-effort removals (tmp files, quarantine moves) that failed
}

// Sub returns the counter delta s - prev.
func (s Stats) Sub(prev Stats) Stats {
	return Stats{
		Hits:          s.Hits - prev.Hits,
		Misses:        s.Misses - prev.Misses,
		Puts:          s.Puts - prev.Puts,
		Evicted:       s.Evicted - prev.Evicted,
		Quarantined:   s.Quarantined - prev.Quarantined,
		CleanupErrors: s.CleanupErrors - prev.CleanupErrors,
	}
}

// Entry describes one stored artifact.
type Entry struct {
	Key     string
	Size    int64 // file size, framing included
	ModTime time.Time
}

// Store is one content-addressed artifact directory. All methods are safe
// for concurrent use; cross-process safety rests on atomic renames.
//
// Counters are telemetry metrics in a per-store registry (one namespace
// per directory), mirrored into the process-wide "store.*" counters of the
// default registry; Stats and Snapshot are views of them.
type Store struct {
	dir     string
	fs      fsx.FS
	retries atomic.Int32 // configured retry bound; 0 = fsx default

	reg                                      *telemetry.Registry
	hits, misses, puts, evicted, quarantined *telemetry.Counter
	cleanupErrors, ioRetries, ioGiveups      *telemetry.Counter
}

// count bumps a per-store counter and its process-wide mirror. Counter
// writes land on shard 0: store operations are I/O-bound and serialized
// around the filesystem, so shard fan-out would buy nothing here.
func count(local, global *telemetry.Counter, d int64) {
	local.Add(0, d)
	global.Add(0, d)
}

var (
	regMu    sync.Mutex
	registry = map[string]*Store{}
)

// Open returns the process-shared Store for dir, creating the directory
// skeleton on first use. Repeated opens of one directory return the same
// handle, so counters aggregate across all users of the cache.
func Open(dir string) (*Store, error) { return OpenConfig(dir, Config{}) }

// OpenConfig is Open with disk-access configuration. With a nil cfg.FS it
// returns the memoized per-directory handle (creating it on first use,
// and adopting a non-zero cfg.Retries onto the shared handle so later
// openers see the tuned bound). With a non-nil cfg.FS it returns a fresh
// private handle every call: fault-injecting filesystems must not leak
// into the process-shared handle, and a private handle is exactly how a
// test models a second process on the same directory.
func OpenConfig(dir string, cfg Config) (*Store, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("store: resolve %q: %w", dir, err)
	}
	if cfg.FS != nil {
		return newStore(abs, cfg)
	}
	regMu.Lock()
	defer regMu.Unlock()
	if s := registry[abs]; s != nil {
		if cfg.Retries != 0 {
			s.retries.Store(int32(cfg.Retries))
		}
		return s, nil
	}
	s, err := newStore(abs, cfg)
	if err != nil {
		return nil, err
	}
	registry[abs] = s
	return s, nil
}

func newStore(abs string, cfg Config) (*Store, error) {
	reg := telemetry.NewRegistry()
	s := &Store{
		dir:           abs,
		fs:            fsx.Or(cfg.FS),
		reg:           reg,
		hits:          reg.Counter("store.hits"),
		misses:        reg.Counter("store.misses"),
		puts:          reg.Counter("store.puts"),
		evicted:       reg.Counter("store.evictions"),
		quarantined:   reg.Counter("store.quarantines"),
		cleanupErrors: reg.Counter("store.cleanup_errors"),
		ioRetries:     reg.Counter("store.io_retries"),
		ioGiveups:     reg.Counter("store.io_giveups"),
	}
	s.retries.Store(int32(cfg.Retries))
	for _, sub := range []string{tmpDirName, quarDirName} {
		err := s.do(context.Background(), func() error {
			return s.fs.MkdirAll(filepath.Join(abs, sub), 0o755)
		})
		if err != nil {
			return nil, fmt.Errorf("store: init %q: %w", abs, err)
		}
	}
	return s, nil
}

// policy is the store's retry policy under its configured bound.
func (s *Store) policy() fsx.RetryPolicy {
	return fsx.RetryPolicy{Retries: int(s.retries.Load())}
}

// do runs op under the retry policy and meters the outcome: io_retries
// counts re-attempts, io_giveups counts transient failures that survived
// every attempt (permanent errors are not give-ups — retrying was never
// going to help).
func (s *Store) do(ctx context.Context, op func() error) error {
	retries, err := s.policy().Do(ctx, op)
	if retries > 0 {
		count(s.ioRetries, gIORetries, int64(retries))
	}
	if err != nil && fsx.Transient(err) {
		count(s.ioGiveups, gIOGiveups, 1)
	}
	return err
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Stats returns a snapshot of the store's counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:          s.hits.Value(),
		Misses:        s.misses.Value(),
		Puts:          s.puts.Value(),
		Evicted:       s.evicted.Value(),
		Quarantined:   s.quarantined.Value(),
		CleanupErrors: s.cleanupErrors.Value(),
	}
}

// Snapshot returns the store's per-directory telemetry snapshot — the
// counters behind Stats in the registry's machine-readable form (the
// fencecache -json surface).
func (s *Store) Snapshot() telemetry.Snapshot { return s.reg.Snapshot() }

// validKey reports whether key is a usable content key: lowercase hex,
// long enough to shard on. Anything else is rejected before it can name a
// path outside the store.
func validKey(key string) bool {
	if len(key) < 4 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func (s *Store) entryPath(key string) string {
	return filepath.Join(s.dir, key[:2], key+suffix)
}

// fnv1a64 checksums entry payloads. It guards against torn or bit-rotted
// files, not adversaries — the store lives in a local cache directory.
func fnv1a64(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// HeaderSize is the length of the magic+length+checksum prefix Frame
// prepends; a framed file's payload begins at this offset.
const HeaderSize = headerSize

// Frame wraps payload in the store's on-disk format: magic+version, the
// payload length, and an FNV-1a checksum, followed by the payload bytes.
// It is exported so other disk surfaces (the model checker's spill area)
// reuse the exact framing — and therefore the exact corruption-degrades-
// to-a-miss guarantee — of the baseline store.
func Frame(payload []byte) []byte {
	buf := make([]byte, headerSize+len(payload))
	copy(buf, magic[:])
	binary.LittleEndian.PutUint64(buf[4:12], uint64(len(payload)))
	binary.LittleEndian.PutUint64(buf[12:20], fnv1a64(payload))
	copy(buf[headerSize:], payload)
	return buf
}

// Unframe verifies a framed file's header and checksum and returns its
// payload, or ok=false for any integrity failure (short file, bad magic or
// version, length mismatch, checksum mismatch).
func Unframe(data []byte) (payload []byte, ok bool) {
	if len(data) < headerSize || [4]byte(data[:4]) != magic {
		return nil, false
	}
	n := binary.LittleEndian.Uint64(data[4:12])
	sum := binary.LittleEndian.Uint64(data[12:20])
	payload = data[headerSize:]
	if uint64(len(payload)) != n || fnv1a64(payload) != sum {
		return nil, false
	}
	return payload, true
}

// Get returns the verified payload stored under key. Every failure mode —
// absent entry, unreadable file (after transient-error retries), framing
// violation — is a miss; entries that exist but fail verification are
// additionally quarantined so the next run does not re-read known-bad
// bytes.
func (s *Store) Get(key string) ([]byte, bool) {
	return s.get(context.Background(), key)
}

// GetCtx is Get gated by a context: a cancelled ctx returns not-found
// without touching the disk, so a cancelled certification never blocks on
// store I/O. The skip is not counted as a miss — no lookup happened, and
// the hit/miss counters feed warm-vs-cold reporting that must stay
// truthful across interrupted runs. A live ctx also bounds the retry
// backoff, so cancellation wins mid-retry too.
func (s *Store) GetCtx(ctx context.Context, key string) ([]byte, bool) {
	if ctx.Err() != nil {
		return nil, false
	}
	return s.get(ctx, key)
}

func (s *Store) get(ctx context.Context, key string) ([]byte, bool) {
	if !validKey(key) {
		count(s.misses, gMisses, 1)
		return nil, false
	}
	var data []byte
	err := s.do(ctx, func() error {
		var e error
		data, e = s.fs.ReadFile(s.entryPath(key))
		return e
	})
	if err != nil {
		count(s.misses, gMisses, 1)
		return nil, false
	}
	payload, ok := Unframe(data)
	if !ok {
		s.Quarantine(key)
		count(s.misses, gMisses, 1)
		return nil, false
	}
	count(s.hits, gHits, 1)
	return payload, true
}

// Peek returns the verified payload stored under key like Get, but
// read-only: it moves no counter and quarantines nothing, so inspection
// tools can look at a store without changing it.
func (s *Store) Peek(key string) ([]byte, bool) {
	if !validKey(key) {
		return nil, false
	}
	data, err := s.fs.ReadFile(s.entryPath(key))
	if err != nil {
		return nil, false
	}
	return Unframe(data)
}

// PutCtx is Put gated by a context: a cancelled ctx skips the write
// entirely and returns ctx's error, so an abandoned run leaves no fresh
// entries behind. Entries that do get written are complete by
// construction (temp file + atomic rename) — cancellation can only
// suppress a write, never truncate one.
func (s *Store) PutCtx(ctx context.Context, key string, payload []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	return s.put(ctx, key, payload)
}

// Put stores payload under key, atomically: the framed entry is written to
// the store's tmp directory and renamed into place, so a concurrent Get
// (or a reader in another process) sees either the old entry, the new one,
// or a miss — never a torn write. Losing a Put/Put race is harmless:
// content addressing makes both writers' bytes identical. Transient
// failures are retried from scratch (a fresh temp file each attempt);
// failed attempts' temp files are removed best-effort, with failures of
// that removal counted in cleanup_errors.
func (s *Store) Put(key string, payload []byte) error {
	return s.put(context.Background(), key, payload)
}

func (s *Store) put(ctx context.Context, key string, payload []byte) error {
	if !validKey(key) {
		return fmt.Errorf("store: invalid key %q", key)
	}
	framed := Frame(payload)
	if err := s.do(ctx, func() error { return s.putOnce(key, framed) }); err != nil {
		return fmt.Errorf("store: put %s: %w", key, err)
	}
	count(s.puts, gPuts, 1)
	gEntryBytes.Observe(0, int64(len(payload)))
	return nil
}

// putOnce is one attempt of the temp-write-rename sequence.
func (s *Store) putOnce(key string, framed []byte) error {
	if err := s.fs.MkdirAll(filepath.Join(s.dir, key[:2]), 0o755); err != nil {
		return err
	}
	tmp, err := s.fs.CreateTemp(filepath.Join(s.dir, tmpDirName), key+".*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	_, werr := tmp.Write(framed)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = s.fs.Rename(tmpName, s.entryPath(key))
	}
	if werr != nil {
		if s.fs.Remove(tmpName) != nil {
			count(s.cleanupErrors, gCleanupErrors, 1)
		}
		return werr
	}
	return nil
}

// Reject reclassifies an entry Get just served: the caller's decoder
// refused a payload that passed framing (e.g. a record from an
// incompatible codec version). The hit becomes a miss — the entry was not
// usable, and warm-vs-cold reporting must say so — and the entry is
// quarantined.
func (s *Store) Reject(key string) {
	count(s.hits, gHits, -1)
	count(s.misses, gMisses, 1)
	s.Quarantine(key)
}

// Quarantine moves the entry stored under key into the quarantine
// directory. Get calls it for framing failures; decode-level failures go
// through Reject, which also fixes up the hit/miss accounting. Failures
// of the move-aside itself (the entry could be neither renamed nor
// removed) are counted in cleanup_errors: the store could not stop a
// known-bad file from being re-read.
func (s *Store) Quarantine(key string) {
	if !validKey(key) {
		return
	}
	src := s.entryPath(key)
	dst := filepath.Join(s.dir, quarDirName, key+suffix)
	// A previous quarantine of the same key gives way; only unexpected
	// failures to clear it count as cleanup errors.
	if rerr := s.fs.Remove(dst); rerr != nil && !os.IsNotExist(rerr) {
		count(s.cleanupErrors, gCleanupErrors, 1)
	}
	if err := s.fs.Rename(src, dst); err != nil {
		// Rename can fail when another process already moved or removed
		// the entry; removing covers the remaining local failure modes.
		if rmErr := s.fs.Remove(src); rmErr != nil {
			if !os.IsNotExist(rmErr) {
				count(s.cleanupErrors, gCleanupErrors, 1)
			}
			return
		}
	}
	count(s.quarantined, gQuarantined, 1)
}

// List enumerates the stored entries (quarantined and in-flight files
// excluded), sorted by key.
func (s *Store) List() ([]Entry, error) {
	shards, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: list: %w", err)
	}
	var out []Entry
	for _, sh := range shards {
		if !sh.IsDir() || sh.Name() == tmpDirName || sh.Name() == quarDirName {
			continue
		}
		files, err := s.fs.ReadDir(filepath.Join(s.dir, sh.Name()))
		if err != nil {
			continue // shard vanished under a concurrent GC
		}
		for _, f := range files {
			key, isEntry := strings.CutSuffix(f.Name(), suffix)
			if f.IsDir() || !isEntry || !validKey(key) {
				continue
			}
			info, err := f.Info()
			if err != nil {
				continue
			}
			out = append(out, Entry{Key: key, Size: info.Size(), ModTime: info.ModTime()})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// Verify integrity-checks every stored entry, quarantining the ones whose
// framing no longer verifies, and returns the surviving count plus the
// keys of the quarantined entries.
func (s *Store) Verify() (ok int, bad []string, err error) {
	entries, err := s.List()
	if err != nil {
		return 0, nil, err
	}
	for _, en := range entries {
		data, rerr := s.fs.ReadFile(s.entryPath(en.Key))
		if rerr != nil {
			continue // removed concurrently: neither good nor bad
		}
		if _, valid := Unframe(data); !valid {
			s.Quarantine(en.Key)
			bad = append(bad, en.Key)
			continue
		}
		ok++
	}
	sort.Strings(bad)
	return ok, bad, nil
}

// staleTmpAge is how old an in-flight temp file must be before GC treats
// it as the orphan of a crashed writer rather than a live Put.
const staleTmpAge = time.Hour

// GC bounds the store to maxBytes of entry data by evicting entries
// oldest-first (by modification time) until the total fits. It also
// reclaims the space no other path ever frees: quarantined entries (their
// post-mortem window ends at the next GC) and temp files orphaned by
// crashed writers (older than an hour, so a live Put is never raced). It
// returns the live-entry eviction count and the total bytes freed.
func (s *Store) GC(maxBytes int64) (evicted int, freed int64, err error) {
	if maxBytes < 0 {
		return 0, 0, fmt.Errorf("store: gc: negative size bound %d", maxBytes)
	}
	freed += s.purgeDir(filepath.Join(s.dir, quarDirName), 0)
	freed += s.purgeDir(filepath.Join(s.dir, tmpDirName), staleTmpAge)
	victims, err := s.evictionPlan(maxBytes)
	if err != nil {
		return 0, freed, err
	}
	for _, en := range victims {
		if rerr := s.fs.Remove(s.entryPath(en.Key)); rerr != nil && !os.IsNotExist(rerr) {
			return evicted, freed, fmt.Errorf("store: gc: %w", rerr)
		}
		freed += en.Size
		evicted++
		count(s.evicted, gEvicted, 1)
	}
	return evicted, freed, nil
}

// GCPlan is the dry-run half of GC: it returns the live entries an
// oldest-first GC bounded to maxBytes would evict, in eviction order,
// without removing anything (quarantine and stale-temp reclamation are
// unconditional in GC and not listed here — only live-entry evictions are
// a judgment call worth previewing).
func (s *Store) GCPlan(maxBytes int64) ([]Entry, error) {
	if maxBytes < 0 {
		return nil, fmt.Errorf("store: gc: negative size bound %d", maxBytes)
	}
	return s.evictionPlan(maxBytes)
}

// evictionPlan selects the oldest live entries whose removal brings the
// store's total entry bytes within maxBytes.
func (s *Store) evictionPlan(maxBytes int64) ([]Entry, error) {
	entries, err := s.List()
	if err != nil {
		return nil, err
	}
	var total int64
	for _, en := range entries {
		total += en.Size
	}
	if total <= maxBytes {
		return nil, nil
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].ModTime.Before(entries[j].ModTime) })
	var victims []Entry
	for _, en := range entries {
		if total <= maxBytes {
			break
		}
		total -= en.Size
		victims = append(victims, en)
	}
	return victims, nil
}

// purgeDir removes the plain files of dir older than minAge (zero: all of
// them) and returns the bytes reclaimed.
func (s *Store) purgeDir(dir string, minAge time.Duration) (freed int64) {
	files, err := s.fs.ReadDir(dir)
	if err != nil {
		return 0
	}
	cutoff := time.Now().Add(-minAge)
	for _, f := range files {
		if f.IsDir() {
			continue
		}
		info, err := f.Info()
		if err != nil || info.ModTime().After(cutoff) {
			continue
		}
		if s.fs.Remove(filepath.Join(dir, f.Name())) == nil {
			freed += info.Size()
		}
	}
	return freed
}

// Quarantined enumerates the quarantined entries — corrupt or undecodable
// files set aside for post-mortem (reclaimed by the next GC).
func (s *Store) Quarantined() ([]Entry, error) {
	files, err := s.fs.ReadDir(filepath.Join(s.dir, quarDirName))
	if err != nil {
		return nil, fmt.Errorf("store: quarantined: %w", err)
	}
	var out []Entry
	for _, f := range files {
		if f.IsDir() {
			continue
		}
		info, err := f.Info()
		if err != nil {
			continue
		}
		out = append(out, Entry{
			Key:     strings.TrimSuffix(f.Name(), suffix),
			Size:    info.Size(),
			ModTime: info.ModTime(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}
