package store

// Fault-injection tests for the store: seeded fault
// schedules and targeted stub filesystems drive every degradation path —
// transient faults retried to success, persistent faults surfacing as
// explicit errors with cleanup metered, torn writes degrading to misses.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"fenceplace/internal/fsx"
)

// stubFS overrides selected operations of the real filesystem with fixed
// errors — the deterministic complement of the seeded FaultFS.
type stubFS struct {
	fsx.FS
	renameErr error
	removeErr error
}

func (s *stubFS) Rename(oldpath, newpath string) error {
	if s.renameErr != nil {
		return s.renameErr
	}
	return s.FS.Rename(oldpath, newpath)
}

func (s *stubFS) Remove(name string) error {
	if s.removeErr != nil {
		return s.removeErr
	}
	return s.FS.Remove(name)
}

// TestOpenAndPutRideOutTransientFaults pins the retry loop end to end: a
// seeded burst of transient EIO at store init is retried to success, the
// retries are metered, and the store then works normally.
func TestOpenAndPutRideOutTransientFaults(t *testing.T) {
	dir := t.TempDir()
	ff := fsx.NewFaultFS(nil, fsx.FaultConfig{Seed: 11, EIO: 1, MaxInjected: 3})
	s, err := OpenConfig(dir, Config{FS: ff, Retries: 5})
	if err != nil {
		t.Fatalf("open under transient faults: %v", err)
	}
	if got := s.Stats(); got.CleanupErrors != 0 {
		t.Fatalf("cleanup errors at init: %+v", got)
	}
	if s.ioRetries.Value() == 0 {
		t.Fatal("transient faults were ridden out but io_retries is zero")
	}
	if s.ioGiveups.Value() != 0 {
		t.Fatalf("io_giveups = %d, want 0 (every fault was outlasted)", s.ioGiveups.Value())
	}
	payload := []byte("survives a flaky disk")
	if err := s.Put(key(1), payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(key(1))
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want the stored payload", got, ok)
	}
}

// TestPutGivesUpOnPersistentTransientFault pins the bounded half of the
// policy: a rename that fails transiently on every attempt exhausts the
// retries, surfaces the error, meters one give-up, and leaves no temp
// litter behind.
func TestPutGivesUpOnPersistentTransientFault(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenConfig(dir, Config{FS: &stubFS{FS: fsx.OS, renameErr: syscall.EIO}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key(1), []byte("doomed")); !errors.Is(err, syscall.EIO) {
		t.Fatalf("Put error = %v, want EIO", err)
	}
	if s.ioGiveups.Value() != 1 {
		t.Fatalf("io_giveups = %d, want 1", s.ioGiveups.Value())
	}
	if s.ioRetries.Value() == 0 {
		t.Fatal("give-up without any metered retries")
	}
	if got := s.Stats(); got.Puts != 0 || got.CleanupErrors != 0 {
		t.Fatalf("stats after give-up: %+v", got)
	}
	ents, err := os.ReadDir(filepath.Join(dir, tmpDirName))
	if err != nil || len(ents) != 0 {
		t.Fatalf("tmp dir not clean after failed Put: %v entries, err %v", len(ents), err)
	}
	if _, ok := s.Get(key(1)); ok {
		t.Fatal("failed Put became visible")
	}
}

// TestPutPermanentFaultFailsWithoutRetry pins the classification: ENOSPC
// is permanent, so the Put fails on the first attempt with no retries and
// no give-up metered.
func TestPutPermanentFaultFailsWithoutRetry(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenConfig(dir, Config{FS: &stubFS{FS: fsx.OS, renameErr: syscall.ENOSPC}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key(1), []byte("x")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("Put error = %v, want ENOSPC", err)
	}
	if r, g := s.ioRetries.Value(), s.ioGiveups.Value(); r != 0 || g != 0 {
		t.Fatalf("permanent fault metered as transient: retries=%d giveups=%d", r, g)
	}
}

// TestCleanupErrorsCounted pins satellite discipline: when the failed-Put
// temp file cannot be removed either, the silent leak is counted in
// cleanup_errors and surfaces through Stats and Snapshot.
func TestCleanupErrorsCounted(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenConfig(dir, Config{FS: &stubFS{FS: fsx.OS, renameErr: syscall.ENOSPC, removeErr: syscall.ENOSPC}})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key(1), []byte("x")); err == nil {
		t.Fatal("Put succeeded under a failing rename")
	}
	if got := s.Stats().CleanupErrors; got != 1 {
		t.Fatalf("Stats().CleanupErrors = %d, want 1", got)
	}
	snap := s.Snapshot()
	if got := snap.Counters["store.cleanup_errors"]; got != 1 {
		t.Fatalf("Snapshot cleanup_errors = %d, want 1", got)
	}
	prev := s.Stats()
	if d := s.Stats().Sub(prev); d.CleanupErrors != 0 {
		t.Fatalf("Sub delta = %+v, want zero", d)
	}
}

// TestDegradationLadderMonotonic pins the gauge discipline: the recorded
// rung only climbs, and ResetDegraded rearms it.
func TestDegradationLadderMonotonic(t *testing.T) {
	ResetDegraded()
	defer ResetDegraded()
	if got := DegradedMode(); got != DegradeNone {
		t.Fatalf("fresh rung = %d, want DegradeNone", got)
	}
	NoteUncached()
	if got := DegradedMode(); got != DegradeUncached {
		t.Fatalf("rung = %d, want DegradeUncached", got)
	}
	NoteDegraded(DegradeTruncated)
	if got := DegradedMode(); got != DegradeTruncated {
		t.Fatalf("rung = %d, want DegradeTruncated", got)
	}
	NoteUncached() // lower rung must not regress the gauge
	if got := DegradedMode(); got != DegradeTruncated {
		t.Fatalf("rung regressed to %d after a lower-rung note", got)
	}
	ResetDegraded()
	if got := DegradedMode(); got != DegradeNone {
		t.Fatalf("rung after reset = %d, want DegradeNone", got)
	}
}
