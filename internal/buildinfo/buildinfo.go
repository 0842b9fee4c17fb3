// Package buildinfo derives the build's identity — VCS commit, commit
// time, dirty flag, module version and toolchain — from the metadata the
// Go linker stamps into every binary (debug.ReadBuildInfo). There is
// nothing to wire in the build system: `go build` embeds the data, and
// every CLI's -version flag and fenced's /statusz read it from here, so
// every command reports identical provenance for one build.
package buildinfo

import (
	"runtime"
	"runtime/debug"
	"sync"
)

// Info is the build's identity, with every field best-effort: binaries
// built outside a VCS checkout (or with -buildvcs=off) carry empty commit
// fields, never an error.
type Info struct {
	Module     string // main module path ("fenceplace")
	Version    string // module version ("(devel)" for workspace builds)
	Commit     string // full VCS revision, "" when not stamped
	CommitTime string // RFC 3339 commit timestamp, "" when not stamped
	Dirty      bool   // the working tree had local modifications
	Go         string // toolchain ("go1.24.x")
}

var (
	once   sync.Once
	cached Info
)

// Read returns the running binary's build identity (computed once).
func Read() Info {
	once.Do(func() {
		cached = Info{Go: runtime.Version()}
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		cached.Module = bi.Main.Path
		cached.Version = bi.Main.Version
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				cached.Commit = s.Value
			case "vcs.time":
				cached.CommitTime = s.Value
			case "vcs.modified":
				cached.Dirty = s.Value == "true"
			}
		}
	})
	return cached
}

// short truncates a revision to the conventional 12 hex digits.
func short(rev string) string {
	if len(rev) > 12 {
		return rev[:12]
	}
	return rev
}

// String renders the identity on one line, the form the CLIs print for
// -version:
//
//	fenceplace (devel) commit 0123456789ab (2026-08-08T10:00:00Z) go1.24.0
func (i Info) String() string {
	s := i.Module
	if s == "" {
		s = "fenceplace"
	}
	if i.Version != "" {
		s += " " + i.Version
	}
	if i.Commit != "" {
		s += " commit " + short(i.Commit)
		if i.Dirty {
			s += "+dirty"
		}
		if i.CommitTime != "" {
			s += " (" + i.CommitTime + ")"
		}
	}
	return s + " " + i.Go
}

// String is Read().String() — the one-line form of the running binary.
func String() string { return Read().String() }
