package fenceplace_test

// Tests for the cross-variant certification cache: all strategies of one
// program certify against a single SC exploration memoized in the
// analyzer's pass session, and each distinct instrumented build is
// explored under TSO once per session.

import (
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"fenceplace"

	"fenceplace/internal/mc"
	"fenceplace/internal/progs"
	"fenceplace/internal/telemetry"
	"fenceplace/internal/tso"
)

// explorations and scExplorations read the model checker's process-wide
// counts of all explorations and of SC explorations.
func explorations() int64 { return telemetry.Default().Counter("mc.explore_runs").Value() }

func scExplorations() int64 { return telemetry.Default().Counter("mc.sc_explore_runs").Value() }

// TestCertifyVariantsShareOneSCExploration is the acceptance check for
// exploration reuse: certifying all three placement strategies of one
// program through an Analyzer must run exactly one SC exploration plus
// one TSO exploration per distinct instrumented build (strategies that
// place the same fences share one), with no worker panic recovered along
// the way, and certifying again must explore nothing. The assertions ride
// on the model checker's process-wide counters, which is safe here
// because root-package tests do not run in parallel.
func TestCertifyVariantsShareOneSCExploration(t *testing.T) {
	t.Setenv("FENCEPLACE_CACHE_DIR", "") // exploration counts assume no disk cache
	m := progs.ByName("dekker")
	pp := m.Defaults
	pp.Threads = 2
	pp.Size = 1
	az := fenceplace.NewAnalyzer(m.Build(pp))
	results := az.AnalyzeAll()

	panics := func() int64 { return telemetry.Default().Counter("mc.worker_panics").Value() }
	before, scBefore, panicsBefore := explorations(), scExplorations(), panics()
	for _, res := range results {
		rep, err := fenceplace.CertifyCtx(context.Background(), res, nil)
		if err != nil {
			t.Fatalf("%s: %v", res.Strategy, err)
		}
		if !rep.Equivalent {
			t.Fatalf("%s: not SC-equivalent: %s", res.Strategy, rep)
		}
	}
	builds := map[mc.Key]bool{}
	for _, res := range results {
		builds[mc.ExplorationKey(res.Instrumented, nil, mc.Config{Mode: tso.TSO})] = true
	}
	delta := explorations() - before
	want := int64(1 + len(builds)) // one shared SC baseline + one TSO per distinct build
	if delta != want {
		t.Errorf("certifying %d variants (%d distinct builds) ran %d explorations, want %d",
			len(results), len(builds), delta, want)
	}
	if d := scExplorations() - scBefore; d != 1 {
		t.Errorf("certifying %d variants ran %d SC explorations, want 1", len(results), d)
	}
	if d := panics() - panicsBefore; d != 0 {
		t.Errorf("mc.worker_panics advanced by %d, want 0", d)
	}

	// Further certifications of the same session hit both memoized sides.
	before = explorations()
	if _, err := fenceplace.CertifyCtx(context.Background(), results[0], nil); err != nil {
		t.Fatal(err)
	}
	if d := explorations() - before; d != 0 {
		t.Errorf("re-certification ran %d explorations, want 0", d)
	}
}

// TestAnalyzerExploresEachBuildOnce pins the session's exploration memo on
// the TSO side, on dekker 2/1, whose Control and Address+Control builds
// place the same fences and whose Pensieve build places more.
func TestAnalyzerExploresEachBuildOnce(t *testing.T) {
	t.Setenv("FENCEPLACE_CACHE_DIR", "") // exploration counts assume no disk cache
	build := func() *fenceplace.Program {
		m := progs.ByName("dekker")
		pp := m.Defaults
		pp.Threads = 2
		pp.Size = 1
		return m.Build(pp)
	}
	ctx := context.Background()
	az := fenceplace.NewAnalyzer(build())
	pens, ctl, ac := az.Analyze(fenceplace.PensieveOnly), az.Analyze(fenceplace.Control), az.Analyze(fenceplace.AddressControl)
	certify := func(ctx context.Context, res *fenceplace.Result, opts ...fenceplace.Option) (*fenceplace.CertReport, int64, error) {
		t.Helper()
		before := explorations()
		rep, err := fenceplace.CertifyCtx(ctx, res, nil, opts...)
		return rep, explorations() - before, err
	}

	// Control and Address+Control share one TSO exploration and one report.
	repC, dC, err := certify(ctx, ctl)
	if err != nil {
		t.Fatal(err)
	}
	repAC, dAC, err := certify(ctx, ac)
	if err != nil {
		t.Fatal(err)
	}
	if dC != 2 || dAC != 0 {
		t.Errorf("Control ran %d explorations and Address+Control %d, want 2 (SC + TSO) and 0", dC, dAC)
	}
	if !reflect.DeepEqual(repC, repAC) {
		t.Errorf("reports differ:\nControl         %s\nAddress+Control %s", repC, repAC)
	}

	// Pensieve's build places more fences: its own TSO exploration.
	if _, d, err := certify(ctx, pens); err != nil || d != 1 {
		t.Errorf("Pensieve ran %d explorations (err %v), want 1", d, err)
	}

	// Re-certifying explores nothing.
	for _, res := range []*fenceplace.Result{pens, ctl, ac} {
		if _, d, err := certify(ctx, res); err != nil || d != 0 {
			t.Errorf("re-certifying %s ran %d explorations (err %v), want 0", res.Strategy, d, err)
		}
	}

	// A cancelled TSO exploration is not memoized: the retry explores. The
	// SC side is memoized already, so the cancelled call reaches the TSO
	// memo of a fresh session.
	az = fenceplace.NewAnalyzer(build())
	pens, ctl = az.Analyze(fenceplace.PensieveOnly), az.Analyze(fenceplace.Control)
	if _, _, err := certify(ctx, pens); err != nil {
		t.Fatal(err)
	}
	dead, cancel := context.WithCancel(ctx)
	cancel()
	if _, d, err := certify(dead, ctl); !errors.Is(err, context.Canceled) || d != 0 {
		t.Fatalf("certifying under a cancelled context: %d explorations, err %v; want 0 and context.Canceled", d, err)
	}
	if rep, d, err := certify(ctx, ctl); err != nil || d != 1 || !rep.Equivalent {
		t.Errorf("retry after cancellation ran %d explorations (err %v, report %v), want 1 and a certificate", d, err, rep)
	}

	// A truncated TSO exploration is memoized for its budget: the SC side
	// fits in 400 states, the TSO side does not, and asking again — for
	// either build that places these fences — explores nothing.
	budget := []fenceplace.Option{fenceplace.WithMaxStates(400), fenceplace.WithWorkers(1)}
	az = fenceplace.NewAnalyzer(build())
	ctl, ac = az.Analyze(fenceplace.Control), az.Analyze(fenceplace.AddressControl)
	for i, res := range []*fenceplace.Result{ctl, ac, ctl} {
		want := int64(0)
		if i == 0 {
			want = 2 // the SC baseline under this budget, then the truncated TSO side
		}
		if _, d, err := certify(ctx, res, budget...); !errors.Is(err, fenceplace.ErrTruncated) || d != want {
			t.Errorf("call %d (%s) under a 400-state budget: %d explorations, err %v; want %d and ErrTruncated",
				i, res.Strategy, d, err, want)
		}
	}
}

// TestAnalyzerMemoizedViolationsAreCopies: reports served from one
// memoized TSO exploration carry their own copies of the violating final
// states, so a caller that edits one report cannot change the next.
func TestAnalyzerMemoizedViolationsAreCopies(t *testing.T) {
	t.Setenv("FENCEPLACE_CACHE_DIR", "")
	m := progs.ByName("dekker")
	pp := m.Defaults
	pp.Threads = 2
	pp.Size = 1
	p := m.Build(pp)
	az := fenceplace.NewAnalyzer(p)
	ctx := context.Background()
	first, err := az.CertifyProgramCtx(ctx, p, nil) // the unfenced build violates under TSO
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Violations) == 0 {
		t.Fatalf("unfenced dekker certified: %s", first)
	}
	want := slices.Clone(first.Violations[0].Globals)
	first.Violations[0].Globals[0]++
	second, err := az.CertifyProgramCtx(ctx, p, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := second.Violations[0].Globals; !slices.Equal(got, want) {
		t.Errorf("editing one report changed the next: globals %v, want %v", got, want)
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
