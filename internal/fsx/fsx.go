// Package fsx is the filesystem seam of the persistence layer: a minimal
// interface over the operations internal/store (the exploration cache)
// performs, with a passthrough OS implementation for production and a
// deterministic fault-injecting implementation for the chaos test suite
// (see fault.go). Routing every store operation through FS is what lets
// the test suite replay seeded disk failures — EIO, ENOSPC, short writes,
// rename failures, latency, a crash-after-N-ops disk — through full
// certifications and assert that every verdict stays exact or degrades
// explicitly.
//
// The package also owns the transient-vs-permanent error classification
// (Transient) and the bounded-backoff retry helper (retry.go) the store
// layers use, so real and injected faults are retried by one policy.
package fsx

import (
	"errors"
	"io"
	"io/fs"
	"os"
	"syscall"
)

// File is the open-file surface the store needs: sequential writes for
// in-flight entries.
type File interface {
	io.Writer
	io.Closer
	// Name returns the path the file was created with.
	Name() string
}

// FS is the filesystem interface every internal/store operation routes
// through. Implementations must be safe for concurrent use; the OS
// passthrough trivially is, and the fault injector serializes its fault
// schedule internally.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	MkdirTemp(dir, pattern string) (string, error)
	CreateTemp(dir, pattern string) (File, error)
	ReadFile(name string) ([]byte, error)
	WriteFile(name string, data []byte, perm os.FileMode) error
	Rename(oldpath, newpath string) error
	Remove(name string) error
	RemoveAll(path string) error
	ReadDir(name string) ([]os.DirEntry, error)
}

// OS is the passthrough implementation: every method is the corresponding
// os package call. It is the value nil FS fields resolve to.
var OS FS = osFS{}

type osFS struct{}

func (osFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }
func (osFS) MkdirTemp(dir, pattern string) (string, error) {
	return os.MkdirTemp(dir, pattern)
}
func (osFS) CreateTemp(dir, pattern string) (File, error) { return os.CreateTemp(dir, pattern) }
func (osFS) ReadFile(name string) ([]byte, error)         { return os.ReadFile(name) }
func (osFS) WriteFile(name string, data []byte, perm os.FileMode) error {
	return os.WriteFile(name, data, perm)
}
func (osFS) Rename(oldpath, newpath string) error       { return os.Rename(oldpath, newpath) }
func (osFS) Remove(name string) error                   { return os.Remove(name) }
func (osFS) RemoveAll(path string) error                { return os.RemoveAll(path) }
func (osFS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }

// Or returns f, or OS when f is nil — the one place the nil-means-OS
// convention is implemented.
func Or(f FS) FS {
	if f == nil {
		return OS
	}
	return f
}

// Transient reports whether err looks like a temporary I/O condition a
// bounded retry can plausibly outlast: an I/O error blip, an interrupted
// or would-block syscall, a busy file, or a short write. Everything else
// — no space, read-only or permission failures, missing files, a crashed
// (injected) disk — is permanent: retrying cannot help, and the caller
// must degrade instead (uncached certification, an explicit miss).
func Transient(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, ErrCrashed) || errors.Is(err, fs.ErrNotExist) || errors.Is(err, fs.ErrPermission) {
		return false
	}
	for _, t := range []error{syscall.EIO, syscall.EINTR, syscall.EAGAIN, syscall.EBUSY, io.ErrShortWrite} {
		if errors.Is(err, t) {
			return true
		}
	}
	return false
}
