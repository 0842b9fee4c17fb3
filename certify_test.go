package fenceplace_test

// Tests for the cross-variant certification cache: all strategies of one
// program certify against a single SC exploration memoized in the
// analyzer's pass session.

import (
	"context"
	"testing"

	"fenceplace"

	"fenceplace/internal/mc"
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
// rides on the model checker's process-wide exploration counter, which is
// safe here because root-package tests do not run in parallel.
func TestCertifyVariantsShareOneSCExploration(t *testing.T) {
	t.Setenv("FENCEPLACE_CACHE_DIR", "") // exploration counts assume no disk cache
	m := progs.ByName("dekker")
	pp := m.Defaults
	pp.Threads = 2
	pp.Size = 1
	az := fenceplace.NewAnalyzer(m.Build(pp))
	results := az.AnalyzeAll()

	before := explorations()
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

// TestAnalyzerBaselineMemoized pins the identity semantics: the analyzer
// serves one baseline per entry configuration, and its SC state set is
// what CertifyAgainst compares variants to.
func TestAnalyzerBaselineMemoized(t *testing.T) {
	t.Setenv("FENCEPLACE_CACHE_DIR", "") // identity assertions assume no disk cache
	m := progs.ByName("peterson")
	pp := m.Defaults
	pp.Threads = 2
	pp.Size = 1
	az := fenceplace.NewAnalyzer(m.Build(pp))

	b1, err := az.BaselineCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := az.BaselineCtx(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if b1 != b2 {
		t.Error("Baseline recomputed for an identical configuration")
	}
	if b1.SC == nil || len(b1.SC.Outcomes) == 0 {
		t.Fatal("baseline carries no SC outcomes")
	}

	res := az.Analyze(fenceplace.Control)
	rep, err := mc.CertifyAgainst(b1, res.Instrumented, mc.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Equivalent {
		t.Fatalf("Control placement not SC-equivalent: %s", rep)
	}
	if rep.VisitedSC != b1.SC.Visited {
		t.Errorf("report's SC visit count %d is not the baseline's %d", rep.VisitedSC, b1.SC.Visited)
	}
}
