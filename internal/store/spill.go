package store

// The spill area: scratch disk space for the model checker's sealed
// seen-set runs (internal/mc). Unlike the content-addressed store, spill
// files are per-exploration scratch — they carry no identity, live only
// for the run that wrote them, and are reclaimed wholesale.
//
// Layout under a root directory:
//
//	<root>/sess-*/run-NNNNNN.run   one sealed run per file, Frame()-framed
//	<root>/quarantine/             runs that failed integrity on open
//
// Each exploration owns one session directory (NewSpillSession) and
// removes it when done; sessions orphaned by crashed processes age out
// through SpillGC, which the fencecache CLI drives. Every run file uses
// the store's magic+length+checksum framing, so a truncated or bit-flipped
// run degrades to an all-miss cold tier — never to a false "seen" — and
// the offending file moves to quarantine/ for post-mortem.
//
// Like the store, a session routes all I/O through an fsx.FS and retries
// transient failures under the bounded policy; a write that fails every
// attempt surfaces to the engine, which keeps the run in RAM (the
// seal-in-RAM degradation rung) rather than lose it.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"fenceplace/internal/fsx"
)

const (
	runSuffix     = ".run"
	sessPrefix    = "sess-"
	spillReadPerm = 0o755
)

// Spill is one exploration's spill session: a private directory under the
// spill root where sealed runs are written. Write and OpenRun are safe for
// concurrent use by the engine's spiller goroutines.
type Spill struct {
	root   string
	dir    string
	fs     fsx.FS
	policy fsx.RetryPolicy
	seq    atomic.Uint64
}

// NewSpillSession creates a fresh session directory under root (creating
// root and its quarantine subdirectory as needed) and returns the handle
// runs are written through, using the real OS and default retries.
func NewSpillSession(root string) (*Spill, error) {
	return NewSpillSessionConfig(root, Config{})
}

// NewSpillSessionConfig is NewSpillSession with disk-access
// configuration: the fault-injection seam of the chaos suite, and the
// retry bound shared with the baseline store.
func NewSpillSessionConfig(root string, cfg Config) (*Spill, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, fmt.Errorf("store: spill: resolve %q: %w", root, err)
	}
	sp := &Spill{
		root:   abs,
		fs:     fsx.Or(cfg.FS),
		policy: fsx.RetryPolicy{Retries: cfg.Retries},
	}
	err = sp.do(func() error {
		return sp.fs.MkdirAll(filepath.Join(abs, quarDirName), spillReadPerm)
	})
	if err != nil {
		return nil, fmt.Errorf("store: spill: init %q: %w", abs, err)
	}
	err = sp.do(func() (e error) {
		sp.dir, e = sp.fs.MkdirTemp(abs, sessPrefix)
		return e
	})
	if err != nil {
		return nil, fmt.Errorf("store: spill: session under %q: %w", abs, err)
	}
	return sp, nil
}

// do runs op under the session's retry policy, metering retries and
// give-ups into the process-wide io counters. Spiller goroutines carry no
// context — the loop is bounded by attempts, not cancellation.
func (sp *Spill) do(op func() error) error {
	retries, err := sp.policy.Do(context.Background(), op)
	if retries > 0 {
		gIORetries.Add(0, int64(retries))
	}
	if err != nil && fsx.Transient(err) {
		gIOGiveups.Add(0, 1)
	}
	return err
}

// Dir returns the session directory runs are written into.
func (sp *Spill) Dir() string { return sp.dir }

// Write frames payload and writes it to a fresh run file in the session
// directory, returning the file's path. Spill files are single-writer
// scratch, so no temp-and-rename dance is needed; a torn write from a
// crash (or an injected short write) is caught by OpenRun's verification
// like any other corruption. Transient failures are retried; a path that
// fails every attempt is removed best-effort so a torn prefix cannot
// linger.
func (sp *Spill) Write(payload []byte) (string, error) {
	path := filepath.Join(sp.dir, fmt.Sprintf("run-%06d%s", sp.seq.Add(1), runSuffix))
	framed := Frame(payload)
	if err := sp.do(func() error { return sp.fs.WriteFile(path, framed, 0o644) }); err != nil {
		if sp.fs.Remove(path) != nil {
			gCleanupErrors.Add(0, 1)
		}
		return "", fmt.Errorf("store: spill: write %s: %w", path, err)
	}
	return path, nil
}

// OpenRun verifies a spilled run's framing end to end (one sequential
// read) and returns the file opened for random access plus the payload
// length; the payload begins at offset HeaderSize. Any integrity failure
// — unreadable file, bad magic, length or checksum mismatch — quarantines
// the file and returns an error, so the caller treats the run as all-miss
// and can never read torn bytes as fingerprints.
func (sp *Spill) OpenRun(path string) (fsx.File, int64, error) {
	payload, err := sp.ReadRunPayload(path)
	if err != nil {
		return nil, 0, err
	}
	var f fsx.File
	err = sp.do(func() (e error) {
		f, e = sp.fs.Open(path)
		return e
	})
	if err != nil {
		return nil, 0, fmt.Errorf("store: spill: reopen %s: %w", path, err)
	}
	return f, int64(len(payload)), nil
}

// ReadAt fills buf from an opened run (see OpenRun) starting at payload
// offset off, retrying transient failures under the session's policy. A
// failure that outlasts the retries is the caller's to quarantine.
func (sp *Spill) ReadAt(f fsx.File, buf []byte, off int64) error {
	return sp.do(func() error {
		_, err := f.ReadAt(buf, HeaderSize+off)
		return err
	})
}

// ReadRunPayload reads and verifies a spilled run in one shot, returning
// its payload (without opening it for random access). Integrity failures
// quarantine the file, exactly as in OpenRun; the model checker's filter
// rebuild uses this to stream whole runs.
func (sp *Spill) ReadRunPayload(path string) ([]byte, error) {
	var data []byte
	err := sp.do(func() (e error) {
		data, e = sp.fs.ReadFile(path)
		return e
	})
	if err != nil {
		sp.Quarantine(path)
		return nil, fmt.Errorf("store: spill: open %s: %w", path, err)
	}
	payload, ok := Unframe(data)
	if !ok {
		sp.Quarantine(path)
		return nil, fmt.Errorf("store: spill: %s failed integrity verification (quarantined)", path)
	}
	return payload, nil
}

// Quarantine moves a run file into the spill root's quarantine directory
// (or removes it when the move fails), so a corrupt run is preserved for
// post-mortem but never re-read as data. A run that can be neither moved
// nor removed counts as a cleanup error.
func (sp *Spill) Quarantine(path string) {
	dst := filepath.Join(sp.root, quarDirName, filepath.Base(sp.dir)+"-"+filepath.Base(path))
	if rerr := sp.fs.Remove(dst); rerr != nil && !os.IsNotExist(rerr) {
		gCleanupErrors.Add(0, 1)
	}
	if err := sp.fs.Rename(path, dst); err != nil {
		if rmErr := sp.fs.Remove(path); rmErr != nil && !os.IsNotExist(rmErr) {
			gCleanupErrors.Add(0, 1)
		}
	}
}

// Remove deletes the whole session directory — the normal end of an
// exploration. Quarantined runs survive in <root>/quarantine until the
// next SpillGC.
func (sp *Spill) Remove() error {
	return sp.fs.RemoveAll(sp.dir)
}

// SpillEntry is one reclaimable item under a spill root: a stale session
// directory or a quarantined run file.
type SpillEntry struct {
	Path    string
	Size    int64 // total bytes (recursive for session directories)
	ModTime time.Time
}

// PlanSpillGC lists what SpillGC would reclaim under root: session
// directories untouched for longer than maxAge (the orphans of crashed
// explorations — live sessions keep their directory mtime fresh by
// writing runs) and every quarantined run file. It is the dry-run half of
// SpillGC, shared with the fencecache CLI's gc -n.
func PlanSpillGC(root string, maxAge time.Duration) ([]SpillEntry, error) {
	dirents, err := fsx.OS.ReadDir(root)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("store: spill: plan gc %q: %w", root, err)
	}
	cutoff := time.Now().Add(-maxAge)
	var out []SpillEntry
	for _, de := range dirents {
		path := filepath.Join(root, de.Name())
		switch {
		case de.IsDir() && strings.HasPrefix(de.Name(), sessPrefix):
			info, err := de.Info()
			if err != nil || info.ModTime().After(cutoff) {
				continue
			}
			out = append(out, SpillEntry{Path: path, Size: dirSize(path), ModTime: info.ModTime()})
		case de.IsDir() && de.Name() == quarDirName:
			files, err := fsx.OS.ReadDir(path)
			if err != nil {
				continue
			}
			for _, f := range files {
				info, err := f.Info()
				if err != nil || f.IsDir() {
					continue
				}
				out = append(out, SpillEntry{Path: filepath.Join(path, f.Name()), Size: info.Size(), ModTime: info.ModTime()})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ModTime.Before(out[j].ModTime) })
	return out, nil
}

// SpillGC reclaims everything PlanSpillGC lists: stale session
// directories (older than maxAge) and quarantined runs. It returns the
// number of items removed and the bytes freed.
func SpillGC(root string, maxAge time.Duration) (removed int, freed int64, err error) {
	plan, err := PlanSpillGC(root, maxAge)
	if err != nil {
		return 0, 0, err
	}
	for _, en := range plan {
		if rerr := fsx.OS.RemoveAll(en.Path); rerr != nil {
			return removed, freed, fmt.Errorf("store: spill: gc: %w", rerr)
		}
		removed++
		freed += en.Size
	}
	return removed, freed, nil
}

// dirSize sums the plain-file bytes under dir (best effort: unreadable
// entries count zero).
func dirSize(dir string) int64 {
	var total int64
	filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		if info, ierr := d.Info(); ierr == nil {
			total += info.Size()
		}
		return nil
	})
	return total
}
