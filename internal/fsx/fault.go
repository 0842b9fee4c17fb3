package fsx

// The deterministic fault injector. A FaultFS wraps another FS and, per
// operation, consults a seed-scripted PRNG to decide whether to inject a
// fault: the same seed and rates always produce the same fault sequence
// (by operation ordinal), so a chaos run that found a bug replays
// byte-for-byte from its seed. Under concurrency the attribution of the
// k-th fault to a particular caller can vary, but the schedule itself —
// which ordinals fail, and how — cannot.
//
// Injected errors wrap real syscall errnos (EIO, ENOSPC) and
// io.ErrShortWrite, so Transient classifies injected and genuine faults
// identically and the retry layer exercises its production paths.

import (
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"syscall"
	"time"
)

// ErrCrashed is the error every operation returns once a FaultFS's
// CrashAfter budget is spent: the modeled disk has gone away mid-run and
// will not come back. It is permanent — Transient(ErrCrashed) is false.
var ErrCrashed = errors.New("fsx: filesystem crashed (injected)")

// FaultConfig scripts a FaultFS. All probabilities are per eligible
// operation, in [0, 1]; the zero value injects nothing.
type FaultConfig struct {
	// Seed selects the deterministic fault schedule.
	Seed int64

	// EIO is the probability of a transient I/O error, on any operation.
	EIO float64
	// ENOSPC is the probability of a permanent no-space error on
	// write-side operations (writes, creates, mkdirs, renames).
	ENOSPC float64
	// ShortWrite is the probability that a WriteFile or File.Write
	// persists only a prefix of its data before failing — the torn-file
	// generator the framing layer must catch.
	ShortWrite float64
	// RenameFail is the probability of a transient failure on Rename —
	// the atomic-publish step of the store's write path.
	RenameFail float64

	// Latency is slept before an operation with probability LatencyProb —
	// the slow-disk simulation behind the -deadline flag's tests.
	Latency     time.Duration
	LatencyProb float64

	// CrashAfter fails every operation past the N-th with ErrCrashed
	// (0 = never): the disk-vanishes-mid-run schedule.
	CrashAfter uint64

	// MaxInjected stops injecting after N faults (0 = no limit), so a
	// schedule can deterministically fail once and then recover — the
	// retry layer's success-after-retry case. CrashAfter ignores it.
	MaxInjected uint64
}

// FaultFS wraps an FS with the scripted fault injector.
type FaultFS struct {
	inner FS
	cfg   FaultConfig

	mu       sync.Mutex
	rng      uint64
	ops      uint64
	injected uint64
}

// NewFaultFS wraps inner (nil: the OS) with the fault schedule cfg.
func NewFaultFS(inner FS, cfg FaultConfig) *FaultFS {
	seed := uint64(cfg.Seed)
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &FaultFS{inner: Or(inner), cfg: cfg, rng: seed}
}

// Ops returns the number of operations observed so far.
func (f *FaultFS) Ops() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Injected returns the number of faults injected so far.
func (f *FaultFS) Injected() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// next is a splitmix64 step — the deterministic fault dice.
func (f *FaultFS) next() uint64 {
	f.rng += 0x9e3779b97f4a7c15
	z := f.rng
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4b9b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// roll draws one deterministic decision with probability p.
func (f *FaultFS) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	return float64(f.next()>>11)/float64(1<<53) < p
}

// opClass flags which fault classes an operation is eligible for.
type opClass struct {
	write  bool // ENOSPC applies
	rename bool // RenameFail applies
}

// decide runs the fault schedule for one operation: it advances the
// operation counter, then returns the injected error (nil: the operation
// proceeds to the inner FS) and how long to sleep first.
func (f *FaultFS) decide(op string, cl opClass) (sleep time.Duration, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops++
	if f.cfg.CrashAfter != 0 && f.ops > f.cfg.CrashAfter {
		return 0, fmt.Errorf("fsx: injected fault on %s: %w", op, ErrCrashed)
	}
	if f.roll(f.cfg.LatencyProb) {
		sleep = f.cfg.Latency
	}
	if f.cfg.MaxInjected != 0 && f.injected >= f.cfg.MaxInjected {
		return sleep, nil
	}
	switch {
	case cl.rename && f.roll(f.cfg.RenameFail):
		err = fmt.Errorf("fsx: injected rename failure on %s: %w", op, syscall.EIO)
	case cl.write && f.roll(f.cfg.ENOSPC):
		err = fmt.Errorf("fsx: injected no-space on %s: %w", op, syscall.ENOSPC)
	case f.roll(f.cfg.EIO):
		err = fmt.Errorf("fsx: injected I/O error on %s: %w", op, syscall.EIO)
	}
	if err != nil {
		f.injected++
	}
	return sleep, err
}

// shortWrite draws the short-write decision for a write of n bytes,
// returning the prefix length to persist and whether to inject.
func (f *FaultFS) shortWrite(n int) (int, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.cfg.MaxInjected != 0 && f.injected >= f.cfg.MaxInjected {
		return n, false
	}
	if n > 0 && f.roll(f.cfg.ShortWrite) {
		f.injected++
		return n / 2, true
	}
	return n, false
}

func (f *FaultFS) run(op string, cl opClass, fn func() error) error {
	sleep, err := f.decide(op, cl)
	if sleep > 0 {
		time.Sleep(sleep)
	}
	if err != nil {
		return err
	}
	return fn()
}

func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	return f.run("mkdirall "+path, opClass{write: true}, func() error { return f.inner.MkdirAll(path, perm) })
}

func (f *FaultFS) MkdirTemp(dir, pattern string) (name string, err error) {
	err = f.run("mkdirtemp "+dir, opClass{write: true}, func() (e error) {
		name, e = f.inner.MkdirTemp(dir, pattern)
		return e
	})
	return name, err
}

func (f *FaultFS) CreateTemp(dir, pattern string) (File, error) {
	var file File
	err := f.run("createtemp "+dir, opClass{write: true}, func() (e error) {
		file, e = f.inner.CreateTemp(dir, pattern)
		return e
	})
	if err != nil {
		return nil, err
	}
	return &faultFile{File: file, fs: f}, nil
}

func (f *FaultFS) ReadFile(name string) (data []byte, err error) {
	err = f.run("readfile "+name, opClass{}, func() (e error) {
		data, e = f.inner.ReadFile(name)
		return e
	})
	if err != nil {
		return nil, err
	}
	return data, nil
}

func (f *FaultFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	sleep, err := f.decide("writefile "+name, opClass{write: true})
	if sleep > 0 {
		time.Sleep(sleep)
	}
	if err != nil {
		return err
	}
	if n, short := f.shortWrite(len(data)); short {
		// Persist the torn prefix, then fail: exactly what a crashed or
		// full disk leaves behind for the framing layer to catch.
		_ = f.inner.WriteFile(name, data[:n], perm)
		return fmt.Errorf("fsx: injected short write on %s (%d of %d bytes): %w",
			name, n, len(data), io.ErrShortWrite)
	}
	return f.inner.WriteFile(name, data, perm)
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	return f.run("rename "+oldpath, opClass{write: true, rename: true},
		func() error { return f.inner.Rename(oldpath, newpath) })
}

func (f *FaultFS) Remove(name string) error {
	return f.run("remove "+name, opClass{write: true}, func() error { return f.inner.Remove(name) })
}

func (f *FaultFS) RemoveAll(path string) error {
	return f.run("removeall "+path, opClass{write: true}, func() error { return f.inner.RemoveAll(path) })
}

func (f *FaultFS) ReadDir(name string) (ents []os.DirEntry, err error) {
	err = f.run("readdir "+name, opClass{}, func() (e error) {
		ents, e = f.inner.ReadDir(name)
		return e
	})
	if err != nil {
		return nil, err
	}
	return ents, nil
}

// faultFile routes the open-file operations through the schedule, so
// in-flight entry writes fail like any other operation.
type faultFile struct {
	File
	fs *FaultFS
}

func (ff *faultFile) Write(p []byte) (int, error) {
	sleep, err := ff.fs.decide("write "+ff.Name(), opClass{write: true})
	if sleep > 0 {
		time.Sleep(sleep)
	}
	if err != nil {
		return 0, err
	}
	if n, short := ff.fs.shortWrite(len(p)); short {
		if n > 0 {
			if wn, werr := ff.File.Write(p[:n]); werr != nil {
				return wn, werr
			}
		}
		return n, fmt.Errorf("fsx: injected short write on %s (%d of %d bytes): %w",
			ff.Name(), n, len(p), io.ErrShortWrite)
	}
	return ff.File.Write(p)
}
