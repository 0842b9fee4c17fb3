package fenceplace_test

// Tests for the cross-variant certification cache: all strategies of one
// program certify against a single SC exploration memoized in the
// analyzer's pass session.

import (
	"context"
	"errors"
	"testing"

	"fenceplace"

	"fenceplace/internal/progs"
	"fenceplace/internal/telemetry"
)

// explorations and scExplorations read the model checker's process-wide
// counts of all explorations and of SC explorations.
func explorations() int64 { return telemetry.Default().Counter("mc.explore_runs").Value() }

func scExplorations() int64 { return telemetry.Default().Counter("mc.sc_explore_runs").Value() }

// TestCertifyVariantsShareOneSCExploration is the acceptance check for
// baseline reuse: certifying all three placement strategies of one
// program through an Analyzer must run exactly one SC exploration plus
// one TSO exploration per variant — 4 explorations, not 6. The assertion
// rides on the model checker's process-wide exploration counters, which
// is safe here because root-package tests do not run in parallel.
func TestCertifyVariantsShareOneSCExploration(t *testing.T) {
	t.Setenv("FENCEPLACE_CACHE_DIR", "") // exploration counts assume no disk cache
	m := progs.ByName("dekker")
	pp := m.Defaults
	pp.Threads = 2
	pp.Size = 1
	az := fenceplace.NewAnalyzer(m.Build(pp))
	results := az.AnalyzeAll()

	before, scBefore := explorations(), scExplorations()
	for _, res := range results {
		rep, err := fenceplace.CertifyCtx(context.Background(), res, nil)
		if err != nil {
			t.Fatalf("%s: %v", res.Strategy, err)
		}
		if !rep.Equivalent {
			t.Fatalf("%s: not SC-equivalent: %s", res.Strategy, rep)
		}
	}
	delta := explorations() - before
	want := int64(1 + len(results)) // one shared SC baseline + one TSO per variant
	if delta != want {
		t.Errorf("certifying %d variants ran %d explorations, want %d (shared baseline)",
			len(results), delta, want)
	}
	if d := scExplorations() - scBefore; d != 1 {
		t.Errorf("certifying %d variants ran %d SC explorations, want 1", len(results), d)
	}

	// Further certifications of the same session hit the memoized baseline:
	// exactly one more exploration (the TSO side) per call.
	before = explorations()
	if _, err := fenceplace.CertifyCtx(context.Background(), results[0], nil); err != nil {
		t.Fatal(err)
	}
	if d := explorations() - before; d != 1 {
		t.Errorf("re-certification ran %d explorations, want 1", d)
	}
}

// TestAnalyzerBaselineMemoized pins the memo semantics: the analyzer
// serves one SC baseline per entry configuration, whichever entry point
// certifies against it, and every report carries that baseline's SC side.
func TestAnalyzerBaselineMemoized(t *testing.T) {
	t.Setenv("FENCEPLACE_CACHE_DIR", "") // exploration counts assume no disk cache
	m := progs.ByName("peterson")
	pp := m.Defaults
	pp.Threads = 2
	pp.Size = 1
	az := fenceplace.NewAnalyzer(m.Build(pp))
	res := az.Analyze(fenceplace.Control)

	ctx := context.Background()
	before := scExplorations()
	r1, err := fenceplace.CertifyCtx(ctx, res, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := az.CertifyProgramCtx(ctx, res.Instrumented, nil)
	if err != nil {
		t.Fatal(err)
	}
	if d := scExplorations() - before; d != 1 {
		t.Errorf("two certifications ran %d SC explorations, want 1 (memoized baseline)", d)
	}
	if !r1.Equivalent || !r2.Equivalent {
		t.Fatalf("Control placement not SC-equivalent: %s / %s", r1, r2)
	}
	if r1.SCOutcomes == 0 || r1.VisitedSC == 0 {
		t.Fatalf("report carries no SC side: %s", r1)
	}
	if r1.VisitedSC != r2.VisitedSC || r1.SCOutcomes != r2.SCOutcomes {
		t.Errorf("SC side differs between certifications: %d/%d vs %d/%d states/outcomes",
			r1.VisitedSC, r1.SCOutcomes, r2.VisitedSC, r2.SCOutcomes)
	}
}

// TestCertifyForeignResult pins the one certification path's guard: a
// Result no Analyzer produced has no session to certify against, so
// CertifyCtx returns an error instead of panicking.
func TestCertifyForeignResult(t *testing.T) {
	p := progs.ByName("peterson").Default()
	for name, res := range map[string]*fenceplace.Result{
		"hand-built": {Prog: p, Instrumented: p},
		"zero":       {},
		"nil":        nil,
	} {
		rep, err := fenceplace.CertifyCtx(context.Background(), res, nil)
		if err == nil || rep != nil {
			t.Errorf("%s Result: CertifyCtx = %v, %v; want an error", name, rep, err)
		}
		var ie *fenceplace.InternalError
		if errors.As(err, &ie) {
			t.Errorf("%s Result: CertifyCtx panicked: %v", name, ie.Panic)
		}
	}
}

// certifyDekker certifies a fresh analysis of dekker 2/1 Control under
// opts, bypassing any exploration store so both explorations run.
func certifyDekker(t *testing.T, opts ...fenceplace.Option) *fenceplace.CertReport {
	t.Helper()
	res := analyzedControl(t, "dekker", 2, 1)
	rep, err := fenceplace.CertifyCtx(context.Background(), res, nil, append(opts, fenceplace.WithCacheDir(""))...)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestCertifyCappedMemorySpills pins the public capped-memory path: under
// a tiny memory cap the seen set must seal and spill to disk, and the
// verdict and outcome counts must equal an uncapped run's with no worker
// panic recovered. Not parallel: the counters are process-wide.
func TestCertifyCappedMemorySpills(t *testing.T) {
	uncapped := certifyDekker(t)
	if !uncapped.Equivalent {
		t.Fatalf("dekker/Control not SC-equivalent: %s", uncapped)
	}

	counters := func() map[string]int64 { return telemetry.Default().Snapshot().Counters }
	before := counters()
	capped := certifyDekker(t, fenceplace.WithMemoryCap(1<<12), fenceplace.WithSpillDir(t.TempDir()))
	after := counters()
	delta := func(name string) int64 { return after[name] - before[name] }

	if capped.Equivalent != uncapped.Equivalent ||
		capped.SCOutcomes != uncapped.SCOutcomes || capped.TSOOutcomes != uncapped.TSOOutcomes {
		t.Errorf("capped run differs from uncapped:\n  capped:   %s\n  uncapped: %s", capped, uncapped)
	}
	if seals, runs := delta("mc.seen_seals"), delta("mc.spill_runs"); seals == 0 || runs == 0 {
		t.Errorf("spilling never engaged under the cap (seals=%d, spilled runs=%d)", seals, runs)
	}
	if panics := delta("mc.worker_panics"); panics != 0 {
		t.Errorf("mc.worker_panics advanced by %d, want 0", panics)
	}
}
