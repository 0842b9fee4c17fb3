package store

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fenceplace/internal/fsx"
)

// key returns a distinct valid 32-hex-digit key per index.
func key(i int) string { return fmt.Sprintf("%032x", i+1) }

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	payload := []byte("certification baseline bytes")
	if err := s.Put(key(0), payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key(0))
	if !ok || string(got) != string(payload) {
		t.Fatalf("Get = %q, %v; want the stored payload", got, ok)
	}
	if _, ok := s.Get(key(1)); ok {
		t.Error("Get of an absent key reported a hit")
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Puts != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 put", st)
	}
	// An empty payload is a legal artifact.
	if err := s.Put(key(2), nil); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(key(2)); !ok || len(got) != 0 {
		t.Errorf("empty payload round trip = %q, %v", got, ok)
	}
}

func TestOpenSharesOneStorePerDir(t *testing.T) {
	dir := t.TempDir()
	a := mustOpen(t, dir)
	b := mustOpen(t, dir)
	if a != b {
		t.Error("two opens of one directory returned distinct stores")
	}
	if c := mustOpen(t, t.TempDir()); c == a {
		t.Error("distinct directories share a store")
	}
}

func TestInvalidKeysRejected(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	for _, bad := range []string{"", "ab", "../../../../etc/passwd", "ABCDEF1234", "xyzw", "abc/def0"} {
		if err := s.Put(bad, []byte("x")); err == nil {
			t.Errorf("Put accepted invalid key %q", bad)
		}
		if _, ok := s.Get(bad); ok {
			t.Errorf("Get accepted invalid key %q", bad)
		}
	}
}

// corrupt locates the entry file for key and rewrites it via mutate.
func corrupt(t *testing.T, s *Store, k string, mutate func([]byte) []byte) {
	t.Helper()
	path := filepath.Join(s.Dir(), k[:2], k+".art")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, mutate(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCorruptEntryIsMissAndQuarantined(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	if err := s.Put(key(0), []byte("good bytes")); err != nil {
		t.Fatal(err)
	}
	// Bit-flip the last payload byte: checksum must reject it.
	corrupt(t, s, key(0), func(b []byte) []byte {
		b[len(b)-1] ^= 0x40
		return b
	})
	if _, ok := s.Get(key(0)); ok {
		t.Fatal("bit-flipped entry served as a hit")
	}
	if _, err := os.Stat(filepath.Join(s.Dir(), "quarantine", key(0)+".art")); err != nil {
		t.Errorf("corrupt entry not quarantined: %v", err)
	}
	if _, ok := s.Get(key(0)); ok {
		t.Error("quarantined entry still served")
	}
	if st := s.Stats(); st.Quarantined != 1 || st.Hits != 0 {
		t.Errorf("stats = %+v, want 1 quarantined, 0 hits", st)
	}

	// A truncated entry (torn write survived a crash) is likewise a miss.
	if err := s.Put(key(1), []byte("will be truncated")); err != nil {
		t.Fatal(err)
	}
	corrupt(t, s, key(1), func(b []byte) []byte { return b[:len(b)/2] })
	if _, ok := s.Get(key(1)); ok {
		t.Fatal("truncated entry served as a hit")
	}
	// And so is garbage that never came from the store.
	corruptPath := filepath.Join(s.Dir(), key(2)[:2], key(2)+".art")
	os.MkdirAll(filepath.Dir(corruptPath), 0o755)
	os.WriteFile(corruptPath, []byte("not an entry"), 0o644)
	if _, ok := s.Get(key(2)); ok {
		t.Fatal("foreign file served as a hit")
	}
	// Put over a quarantined key works and serves again.
	if err := s.Put(key(0), []byte("fresh")); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Get(key(0)); !ok || string(got) != "fresh" {
		t.Errorf("re-put after quarantine = %q, %v", got, ok)
	}
}

func TestRejectReclassifiesHitAsMiss(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	if err := s.Put(key(0), []byte("framing ok, decoder says no")); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(key(0)); !ok {
		t.Fatal("entry not served")
	}
	s.Reject(key(0))
	st := s.Stats()
	if st.Hits != 0 || st.Misses != 1 || st.Quarantined != 1 {
		t.Errorf("stats after Reject = %+v, want 0 hits / 1 miss / 1 quarantined", st)
	}
	if _, ok := s.Get(key(0)); ok {
		t.Error("rejected entry still served")
	}
	if quar, err := s.Quarantined(); err != nil || len(quar) != 1 || quar[0].Key != key(0) {
		t.Errorf("Quarantined() = %v, %v; want the rejected key", quar, err)
	}
}

func TestGCReclaimsQuarantineAndStaleTmp(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	if err := s.Put(key(0), []byte("will be rejected")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key(1), []byte("stays")); err != nil {
		t.Fatal(err)
	}
	s.Get(key(0))
	s.Reject(key(0))
	// An orphaned temp file from a crashed writer, plus a fresh one that a
	// live Put could still own.
	old := filepath.Join(s.Dir(), "tmp", "orphan.tmp")
	os.WriteFile(old, []byte("orphan"), 0o644)
	stale := time.Now().Add(-2 * time.Hour)
	os.Chtimes(old, stale, stale)
	fresh := filepath.Join(s.Dir(), "tmp", "inflight.tmp")
	os.WriteFile(fresh, []byte("inflight"), 0o644)

	evicted, freed, err := s.GC(1 << 20) // bound far above the live entry
	if err != nil {
		t.Fatal(err)
	}
	if evicted != 0 {
		t.Errorf("GC evicted %d live entries under a generous bound", evicted)
	}
	if freed == 0 {
		t.Error("GC freed nothing despite quarantine and an orphaned temp file")
	}
	if quar, _ := s.Quarantined(); len(quar) != 0 {
		t.Errorf("quarantine not purged: %v", quar)
	}
	if _, err := os.Stat(old); !os.IsNotExist(err) {
		t.Error("stale temp file survived GC")
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Error("fresh temp file (a possibly live Put) was removed")
	}
	if _, ok := s.Get(key(1)); !ok {
		t.Error("live entry lost")
	}
}

func TestVerifyQuarantinesBadEntries(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	for i := 0; i < 3; i++ {
		if err := s.Put(key(i), []byte(strings.Repeat("x", i+1))); err != nil {
			t.Fatal(err)
		}
	}
	corrupt(t, s, key(1), func(b []byte) []byte {
		b[0] ^= 0xff // clobber the magic
		return b
	})
	ok, bad, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if ok != 2 || len(bad) != 1 || bad[0] != key(1) {
		t.Errorf("Verify = %d ok, bad %v; want 2 ok, [%s]", ok, bad, key(1))
	}
	entries, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Errorf("after Verify, List holds %d entries, want 2", len(entries))
	}
}

func TestGCEvictsOldestFirst(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	payload := []byte(strings.Repeat("p", 100))
	for i := 0; i < 4; i++ {
		if err := s.Put(key(i), payload); err != nil {
			t.Fatal(err)
		}
		// Distinct mtimes so eviction order is well defined.
		old := time.Now().Add(time.Duration(i-10) * time.Hour)
		if err := os.Chtimes(filepath.Join(s.Dir(), key(i)[:2], key(i)+".art"), old, old); err != nil {
			t.Fatal(err)
		}
	}
	entries, _ := s.List()
	var perEntry int64 = entries[0].Size
	// Budget for two entries: the two oldest (keys 0 and 1) must go.
	evicted, freed, err := s.GC(2 * perEntry)
	if err != nil {
		t.Fatal(err)
	}
	if evicted != 2 || freed != 2*perEntry {
		t.Fatalf("GC evicted %d entries / %d bytes, want 2 / %d", evicted, freed, 2*perEntry)
	}
	for i, wantAlive := range []bool{false, false, true, true} {
		_, ok := s.Get(key(i))
		if ok != wantAlive {
			t.Errorf("after GC, key(%d) alive = %v, want %v", i, ok, wantAlive)
		}
	}
	if st := s.Stats(); st.Evicted != 2 {
		t.Errorf("stats.Evicted = %d, want 2", st.Evicted)
	}
	// A second GC under the same bound is a no-op.
	if evicted, _, _ := s.GC(2 * perEntry); evicted != 0 {
		t.Errorf("idempotent GC evicted %d entries", evicted)
	}
	if _, _, err := s.GC(-1); err == nil {
		t.Error("GC accepted a negative bound")
	}
}

func TestConcurrentPutGet(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	const n = 32
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k := key(i % 8)
			payload := []byte(strings.Repeat("v", 64))
			if err := s.Put(k, payload); err != nil {
				t.Errorf("put %s: %v", k, err)
				return
			}
			if got, ok := s.Get(k); ok && string(got) != string(payload) {
				t.Errorf("get %s returned torn data", k)
			}
		}(i)
	}
	wg.Wait()
	entries, err := s.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 8 {
		t.Errorf("%d entries after concurrent puts, want 8", len(entries))
	}
	// No stray temp files once all writes have landed.
	tmps, _ := os.ReadDir(filepath.Join(s.Dir(), "tmp"))
	if len(tmps) != 0 {
		t.Errorf("%d leftover temp files", len(tmps))
	}
}

// TestTwoProcessesSharingOneCacheDir simulates two independent processes
// on one cache directory (separate handles via a non-nil Config.FS, which
// bypasses the per-directory memoization): concurrent Puts of the same
// key, plus GC racing readers and re-putters, must never surface a torn
// or corrupt read — every successful Get returns exactly some payload a
// writer stored under that key.
func TestTwoProcessesSharingOneCacheDir(t *testing.T) {
	dir := t.TempDir()
	open := func() *Store {
		t.Helper()
		s, err := OpenConfig(dir, Config{FS: fsx.OS})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := open(), open()
	if a == b {
		t.Fatal("non-nil Config.FS must yield private handles")
	}

	// The set of byte payloads any writer may legitimately store under the
	// shared key. A Get that succeeds must return one of them, whole.
	valid := make(map[string]bool)
	for v := 0; v < 4; v++ {
		valid[strings.Repeat(fmt.Sprintf("payload-%d|", v), 32)] = true
	}
	k := key(0)

	var rw sync.WaitGroup // writers + readers (bounded iteration counts)
	// Writers on both handles hammer the same key with distinct payloads.
	for v := 0; v < 4; v++ {
		rw.Add(1)
		go func(v int, s *Store) {
			defer rw.Done()
			payload := []byte(strings.Repeat(fmt.Sprintf("payload-%d|", v), 32))
			for i := 0; i < 200; i++ {
				if err := s.Put(k, payload); err != nil {
					t.Errorf("put: %v", err)
					return
				}
			}
		}(v, []*Store{a, b}[v%2])
	}
	// Readers on both handles: any ok Get must be an exact stored payload.
	// An eviction or a concurrent replace may turn the read into a miss —
	// never into torn bytes.
	for r := 0; r < 4; r++ {
		rw.Add(1)
		go func(s *Store) {
			defer rw.Done()
			for i := 0; i < 400; i++ {
				if got, ok := s.Get(k); ok && !valid[string(got)] {
					t.Errorf("corrupt read: %d bytes, prefix %.40q", len(got), got)
					return
				}
			}
		}([]*Store{a, b}[r%2])
	}
	// GC(0) on the second handle runs for the whole racing phase, evicting
	// whatever has landed while the other process is mid-Put and mid-Get.
	stopc := make(chan struct{})
	gcDone := make(chan error, 1)
	go func() {
		for {
			select {
			case <-stopc:
				gcDone <- nil
				return
			default:
			}
			if _, _, err := b.GC(0); err != nil {
				gcDone <- err
				return
			}
		}
	}()
	rw.Wait()
	close(stopc)
	if err := <-gcDone; err != nil {
		t.Fatalf("gc racing the shared dir: %v", err)
	}

	// The shared directory must still verify clean: no torn entries, no
	// quarantine fallout from the races.
	if _, bad, err := a.Verify(); err != nil || len(bad) != 0 {
		t.Fatalf("Verify after shared-dir races: bad=%v err=%v", bad, err)
	}
}

// TestGCPlanMatchesGC pins the dry run behind `fencecache gc -n`: GCPlan
// lists the entries GC would evict, oldest first, removes nothing, and
// the real GC then evicts exactly those.
func TestGCPlanMatchesGC(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	payload := []byte(strings.Repeat("p", 100))
	for i := 0; i < 4; i++ {
		if err := s.Put(key(i), payload); err != nil {
			t.Fatal(err)
		}
		old := time.Now().Add(time.Duration(i-10) * time.Hour)
		if err := os.Chtimes(filepath.Join(s.Dir(), key(i)[:2], key(i)+".art"), old, old); err != nil {
			t.Fatal(err)
		}
	}
	entries, _ := s.List()
	perEntry := entries[0].Size

	plan, err := s.GCPlan(2 * perEntry)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan) != 2 || plan[0].Key != key(0) || plan[1].Key != key(1) {
		t.Fatalf("plan %+v, want the two oldest (key(0), key(1)) in eviction order", plan)
	}
	// The dry run removed nothing.
	for i := 0; i < 4; i++ {
		if _, ok := s.Get(key(i)); !ok {
			t.Fatalf("GCPlan evicted key(%d)", i)
		}
	}
	// The real GC does exactly what the plan said.
	evicted, freed, err := s.GC(2 * perEntry)
	if err != nil {
		t.Fatal(err)
	}
	if evicted != len(plan) || freed != 2*perEntry {
		t.Fatalf("GC evicted %d / %d bytes, plan promised %d / %d", evicted, freed, len(plan), 2*perEntry)
	}
	// Within budget: empty plan, no error.
	if plan, err := s.GCPlan(1 << 30); err != nil || len(plan) != 0 {
		t.Errorf("under-budget plan %v, err %v; want empty", plan, err)
	}
	if _, err := s.GCPlan(-1); err == nil {
		t.Error("GCPlan accepted a negative bound")
	}
}
