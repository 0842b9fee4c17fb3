package fenceplace_test

// Resolution semantics of the unified option set: environment-derived
// defaults are pinned when the options are resolved, not re-read when they
// are applied.

import (
	"context"
	"testing"

	"fenceplace"

	"fenceplace/internal/progs"
	"fenceplace/internal/store"
)

// TestResolvedPinsCacheDirOnce is the regression test for the cache-dir
// split: $FENCEPLACE_CACHE_DIR is read exactly once, when an option list
// is resolved, so an environment change mid-run cannot divert later
// certifications of the same run into a second store.
func TestResolvedPinsCacheDirOnce(t *testing.T) {
	dir1, dir2 := t.TempDir(), t.TempDir()
	t.Setenv("FENCEPLACE_CACHE_DIR", dir1)
	opts := fenceplace.Resolved() // resolves (and pins) the env default now

	// The environment changes under the run's feet...
	t.Setenv("FENCEPLACE_CACHE_DIR", dir2)

	m := progs.ByName("dekker")
	pp := m.Defaults
	pp.Threads = 2
	pp.Size = 1
	res := fenceplace.Analyze(m.Build(pp), fenceplace.Control)
	rep, err := fenceplace.CertifyCtx(context.Background(), res, nil, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Equivalent {
		t.Fatalf("not SC-equivalent: %s", rep)
	}

	// ...but the pinned options still write to the first store.
	st1, _ := store.Open(dir1)
	st2, _ := store.Open(dir2)
	e1, _ := st1.List()
	e2, _ := st2.List()
	if len(e1) != 2 || len(e2) != 0 {
		t.Errorf("explorations landed in the wrong store: dir1 has %d entries, dir2 has %d (want 2 (SC + TSO), 0)", len(e1), len(e2))
	}
}

// TestWithCacheDirEmptyDisablesPersistence distinguishes the explicit
// empty directory (persistence off) from an absent option (environment
// default).
func TestWithCacheDirEmptyDisablesPersistence(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("FENCEPLACE_CACHE_DIR", dir)

	m := progs.ByName("peterson")
	pp := m.Defaults
	pp.Threads = 2
	pp.Size = 1
	res := fenceplace.Analyze(m.Build(pp), fenceplace.Control)
	rep, err := fenceplace.CertifyCtx(context.Background(), res, nil, fenceplace.WithCacheDir(""))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Equivalent {
		t.Fatalf("not SC-equivalent: %s", rep)
	}
	st, _ := store.Open(dir)
	if entries, _ := st.List(); len(entries) != 0 {
		t.Errorf("WithCacheDir(\"\") still wrote %d entries to the env-named store", len(entries))
	}
}

// TestCertifyCtxInheritsAnalyzerOptions pins the one-option-list
// contract: an option-less CertifyCtx on a Result from a configured
// Analyzer runs under the analyzer's options, while any explicit option
// replaces the configuration wholesale.
func TestCertifyCtxInheritsAnalyzerOptions(t *testing.T) {
	t.Setenv("FENCEPLACE_CACHE_DIR", "")
	dir := t.TempDir()
	m := progs.ByName("dekker")
	pp := m.Defaults
	pp.Threads = 2
	pp.Size = 1
	az := fenceplace.NewAnalyzer(m.Build(pp),
		fenceplace.WithCacheDir(dir), fenceplace.WithMaxStates(1<<20))
	res := az.Analyze(fenceplace.Control)

	// No options: the analyzer's cache directory applies.
	rep, err := fenceplace.CertifyCtx(context.Background(), res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Equivalent {
		t.Fatalf("not SC-equivalent: %s", rep)
	}
	st, _ := store.Open(dir)
	if entries, _ := st.List(); len(entries) != 2 {
		t.Errorf("inherited options wrote %d store entries, want 2 (SC + TSO)", len(entries))
	}

	// Explicit options replace the configuration: a tiny budget must
	// truncate even though the analyzer's budget is ample.
	if _, err := fenceplace.CertifyCtx(context.Background(), res, nil, fenceplace.WithMaxStates(16)); err == nil {
		t.Error("explicit WithMaxStates(16) did not override the analyzer's budget")
	}
}

// TestCertOptionsAdapter pins the deprecated struct's equivalence to the
// option path: the same exploration configuration and the same cache
// directory resolution.
func TestCertOptionsAdapter(t *testing.T) {
	t.Setenv("FENCEPLACE_CACHE_DIR", "")
	m := progs.ByName("dekker")
	pp := m.Defaults
	pp.Threads = 2
	pp.Size = 1
	az := fenceplace.NewAnalyzer(m.Build(pp))
	res := az.Analyze(fenceplace.Control)

	old, err := fenceplace.CertifyOpt(res, nil, fenceplace.CertOptions{MaxStates: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	neu, err := fenceplace.CertifyCtx(context.Background(), res, nil, fenceplace.WithMaxStates(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	if old.Equivalent != neu.Equivalent || old.VisitedTSO != neu.VisitedTSO || old.VisitedSC != neu.VisitedSC {
		t.Errorf("CertOptions adapter and option path disagree: %+v vs %+v", old, neu)
	}
}
