package fenceplace_test

// Chaos suite: seeded fault schedules replayed through full corpus
// certification. The invariant under every schedule is exactness or
// explicit degradation — a flaky cache disk may cost
// re-exploration or a rung on the degradation ladder, but the verdict
// and outcome counts must match the fault-free run bit for bit, and no
// failure may pass silently. The base seed comes from
// FENCEPLACE_CHAOS_SEED so CI pins one schedule while local runs can
// sweep others.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"fenceplace"
	"fenceplace/corpus"

	"fenceplace/internal/fsx"
	"fenceplace/internal/ir"
	"fenceplace/internal/passes"
	"fenceplace/internal/progs"
	"fenceplace/internal/store"
)

// mustProg builds the named corpus program at the chaos suite's reduced
// instantiation (2 threads, size 1 — exhaustively explorable).
func mustProg(t *testing.T, name string) *fenceplace.Program {
	t.Helper()
	m := progs.ByName(name)
	if m == nil {
		t.Fatalf("unknown corpus program %q", name)
	}
	pp := m.Defaults
	pp.Threads = 2
	pp.Size = 1
	return m.Build(pp)
}

// chaosSeed resolves the base fault-schedule seed: FENCEPLACE_CHAOS_SEED
// when set, else a fixed default so a bare `go test` is deterministic.
func chaosSeed(t *testing.T) int64 {
	t.Helper()
	if s := os.Getenv("FENCEPLACE_CHAOS_SEED"); s != "" {
		n, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("FENCEPLACE_CHAOS_SEED=%q: %v", s, err)
		}
		return n
	}
	return 20260808
}

// TestChaosCertificationExactUnderFaults replays seeded fault schedules
// through the whole pipeline — exploration cache reads and writes,
// quarantine cleanup — and requires the certification verdict to
// match the fault-free run exactly on every schedule.
func TestChaosCertificationExactUnderFaults(t *testing.T) {
	t.Setenv("FENCEPLACE_CACHE_DIR", "")
	clean, err := fenceplace.CertifyCtx(context.Background(), freshControlResult(), nil)
	if err != nil {
		t.Fatal(err)
	}

	base := chaosSeed(t)
	for i := int64(0); i < 3; i++ {
		seed := base + i
		store.ResetDegraded()
		ff := fsx.NewFaultFS(nil, fsx.FaultConfig{
			Seed: seed, EIO: 0.15, ENOSPC: 0.05, ShortWrite: 0.05, RenameFail: 0.1,
		})
		rep, err := fenceplace.CertifyCtx(context.Background(), freshControlResult(), nil,
			fenceplace.WithFaultFS(ff),
			fenceplace.WithIORetries(2),
			fenceplace.WithCacheDir(t.TempDir()),
		)
		if err != nil {
			t.Fatalf("seed %d: certification failed under store faults: %v", seed, err)
		}
		if rep.Equivalent != clean.Equivalent ||
			rep.SCOutcomes != clean.SCOutcomes || rep.TSOOutcomes != clean.TSOOutcomes {
			t.Fatalf("seed %d: verdict drifted under faults:\nfaulty: %s\nclean:  %s", seed, rep, clean)
		}
	}
	store.ResetDegraded()
}

// TestChaosCorpusRunUnderFaults drives the corpus runner — the CLI's
// engine — through a faulty filesystem and requires every row to carry
// an explicit status: certified rows match the clean run, and nothing
// errors silently.
func TestChaosCorpusRunUnderFaults(t *testing.T) {
	t.Setenv("FENCEPLACE_CACHE_DIR", "")
	m := mustProg(t, "dekker")
	runner := corpus.Runner{Certify: true, Workers: 1}
	cleanRep, err := runner.Run(context.Background(), corpus.SingleSource("dekker", m, nil))
	if err != nil {
		t.Fatal(err)
	}

	ff := fsx.NewFaultFS(nil, fsx.FaultConfig{
		Seed: chaosSeed(t), EIO: 0.2, ShortWrite: 0.05, RenameFail: 0.1,
	})
	runner.Options = []fenceplace.Option{
		fenceplace.WithFaultFS(ff),
		fenceplace.WithIORetries(2),
		fenceplace.WithCacheDir(t.TempDir()),
	}
	faultRep, err := runner.Run(context.Background(), corpus.SingleSource("dekker", mustProg(t, "dekker"), nil))
	if err != nil {
		t.Fatalf("corpus run failed under faults: %v", err)
	}
	if len(faultRep.Rows) != len(cleanRep.Rows) {
		t.Fatalf("row count %d vs clean %d", len(faultRep.Rows), len(cleanRep.Rows))
	}
	for i, row := range faultRep.Rows {
		for j, v := range row.Variants {
			cv := cleanRep.Rows[i].Variants[j]
			if v.Cert == nil || cv.Cert == nil {
				if (v.Cert == nil) != (cv.Cert == nil) {
					t.Fatalf("row %s variant %s: cert presence differs", row.Program, v.Name)
				}
				continue
			}
			if v.Cert.Status != cv.Cert.Status || v.Cert.SCOutcomes != cv.Cert.SCOutcomes {
				t.Fatalf("row %s variant %s: %s/%d outcomes under faults, clean %s/%d",
					row.Program, v.Name, v.Cert.Status, v.Cert.SCOutcomes, cv.Cert.Status, cv.Cert.SCOutcomes)
			}
		}
	}
}

// TestChaosUnwritableCacheDegradesToUncached pins the ladder's first
// rung: a cache directory that cannot be created (the path is a regular
// file) degrades certification to uncached — correct verdict, explicit
// gauge — instead of failing or silently caching nothing forever.
func TestChaosUnwritableCacheDegradesToUncached(t *testing.T) {
	t.Setenv("FENCEPLACE_CACHE_DIR", "")
	store.ResetDegraded()
	defer store.ResetDegraded()
	blocked := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(blocked, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := fenceplace.CertifyCtx(context.Background(), freshControlResult(), nil,
		fenceplace.WithCacheDir(blocked))
	if err != nil {
		t.Fatalf("certification failed on an unwritable cache dir: %v", err)
	}
	if !rep.Equivalent {
		t.Fatalf("verdict wrong under the uncached rung: %s", rep)
	}
	if rung := store.DegradedMode(); rung < store.DegradeUncached {
		t.Fatalf("degraded rung = %d, want at least DegradeUncached", rung)
	}
}

// TestChaosPassFanoutPanicIsIsolated pins panic isolation at the facade:
// a panic injected into the per-function pass fan-out surfaces from
// AnalyzeCtx as a structured *InternalError — the process survives, and
// the very next analysis of the same program succeeds.
func TestChaosPassFanoutPanicIsIsolated(t *testing.T) {
	passes.TestHookForEachFn = func(i int, f *ir.Fn) {
		panic("injected pass fault")
	}
	defer func() { passes.TestHookForEachFn = nil }()
	az := fenceplace.NewAnalyzer(mustProg(t, "dekker"))
	_, err := az.AnalyzeCtx(context.Background(), fenceplace.Control)
	var ie *fenceplace.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v, want *InternalError", err)
	}
	if ie.Panic != "injected pass fault" {
		t.Fatalf("InternalError.Panic = %v", ie.Panic)
	}
	passes.TestHookForEachFn = nil

	res, err := fenceplace.NewAnalyzer(mustProg(t, "dekker")).AnalyzeCtx(context.Background(), fenceplace.Control)
	if err != nil || res == nil {
		t.Fatalf("clean analysis after a recovered panic: res=%v err=%v", res, err)
	}
}
