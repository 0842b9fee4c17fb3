package fenceplace_test

// Tests for the persistent exploration store: a warm cache directory must
// eliminate both explorations of a certification — the SC baseline and
// the TSO exploration of the variant — across analyzer sessions (the
// stand-in for separate processes — each session rebuilds the program
// from scratch and shares no memory with the last), a warm report must
// equal the cold one, and corrupt store entries must degrade to clean
// misses, never to wrong verdicts.
// The assertions ride on the model checker's process-wide exploration
// counters, which is safe because root-package tests do not run in
// parallel.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"fenceplace"

	"fenceplace/internal/mc"
	"fenceplace/internal/progs"
	"fenceplace/internal/store"
	"fenceplace/internal/telemetry"
)

// freshControlResult builds dekker from scratch in a brand-new analyzer
// session, simulating a separate process working on the same corpus.
func freshControlResult() *fenceplace.Result {
	m := progs.ByName("dekker")
	pp := m.Defaults
	pp.Threads = 2
	pp.Size = 1
	return fenceplace.NewAnalyzer(m.Build(pp)).Analyze(fenceplace.Control)
}

func TestCertifyWarmStartsFromDiskCache(t *testing.T) {
	t.Setenv("FENCEPLACE_CACHE_DIR", "") // isolate from the operator's cache
	dir := t.TempDir()
	opt := fenceplace.WithCacheDir(dir)

	// Cold: the first session explores the SC side and populates the store.
	res := freshControlResult()
	scBefore := scExplorations()
	repCold, err := fenceplace.CertifyCtx(context.Background(), res, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !repCold.Equivalent {
		t.Fatalf("cold certification not SC-equivalent: %s", repCold)
	}
	if d := scExplorations() - scBefore; d != 1 {
		t.Fatalf("cold run performed %d SC explorations, want 1", d)
	}

	// Warm: a fresh session over a freshly built program must load both
	// explorations from disk — zero SC and zero TSO explorations — and
	// reach the identical report.
	res2 := freshControlResult()
	scBefore = scExplorations()
	allBefore := explorations()
	repWarm, err := fenceplace.CertifyCtx(context.Background(), res2, nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if d := scExplorations() - scBefore; d != 0 {
		t.Errorf("warm run performed %d SC explorations, want 0", d)
	}
	if d := explorations() - allBefore; d != 0 {
		t.Errorf("warm run performed %d explorations, want 0", d)
	}
	if !reflect.DeepEqual(repWarm, repCold) {
		t.Errorf("warm report differs from cold:\nwarm %s\ncold %s", repWarm, repCold)
	}

	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Hits < 2 || s.Puts < 2 {
		t.Errorf("store stats %+v: expected at least two hits and two puts (SC + TSO)", s)
	}
	if kinds := entryKinds(t, dir); !reflect.DeepEqual(kinds, map[string]int{"SC-baseline": 1, "TSO-outcomes": 1}) {
		t.Errorf("store holds %v, want one SC baseline and one TSO outcome set", kinds)
	}
}

// TestCorruptCacheEntryDegradesToMiss damages the stored baseline between
// two sessions: the next certification must quarantine it, re-explore,
// and still produce the correct verdict — a corrupt cache can cost time,
// never soundness.
func TestCorruptCacheEntryDegradesToMiss(t *testing.T) {
	t.Setenv("FENCEPLACE_CACHE_DIR", "")
	dir := t.TempDir()
	opt := fenceplace.WithCacheDir(dir)

	if _, err := fenceplace.CertifyCtx(context.Background(), freshControlResult(), nil, opt); err != nil {
		t.Fatal(err)
	}

	// Bit-flip every stored entry.
	var flipped int
	err := filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".art") {
			return err
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data[len(data)-1] ^= 0x01
		flipped++
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil || flipped == 0 {
		t.Fatalf("corrupting store entries: flipped=%d err=%v", flipped, err)
	}

	st, _ := store.Open(dir)
	qBefore := st.Stats().Quarantined
	scBefore := scExplorations()
	rep, err := fenceplace.CertifyCtx(context.Background(), freshControlResult(), nil, opt)
	if err != nil {
		t.Fatalf("certification over a corrupt cache failed: %v", err)
	}
	if !rep.Equivalent {
		t.Fatalf("certification over a corrupt cache changed the verdict: %s", rep)
	}
	if d := scExplorations() - scBefore; d != 1 {
		t.Errorf("corrupt entry did not force a re-exploration: %d SC explorations, want 1", d)
	}
	if d := st.Stats().Quarantined - qBefore; d != 2 {
		t.Errorf("%d entries quarantined, want 2 (SC + TSO)", d)
	}

	// The re-exploration wrote a good entry back: the next session is warm.
	scBefore = scExplorations()
	if _, err := fenceplace.CertifyCtx(context.Background(), freshControlResult(), nil, opt); err != nil {
		t.Fatal(err)
	}
	if d := scExplorations() - scBefore; d != 0 {
		t.Errorf("store not repopulated after quarantine: %d SC explorations, want 0", d)
	}
}

// entryKinds counts a store's entries by record kind.
func entryKinds(t *testing.T, dir string) map[string]int {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	kinds := map[string]int{}
	for _, en := range entries {
		data, ok := st.Peek(en.Key)
		if !ok {
			t.Fatalf("entry %s does not verify", en.Key)
		}
		kinds[mc.RecordKind(data)]++
	}
	return kinds
}

// unfencedDekker certifies dekker's own, fence-free build in a fresh
// analyzer session: under TSO it reaches outcomes SC cannot, so the report
// carries violations and a counterexample.
func unfencedDekker(t *testing.T, opts ...fenceplace.Option) (*fenceplace.CertReport, error) {
	t.Helper()
	prog := mustProg(t, "dekker")
	return fenceplace.NewAnalyzer(prog).CertifyProgramCtx(context.Background(), prog, nil, opts...)
}

// TestWarmViolationEqualsCold pins the warm contract on a variant that is
// NOT SC-equivalent: the violations and the reconstructed counterexample
// come back identical from a warm store, which serves both explorations.
// With a state budget too small for a cold run, the warm store still
// answers (a stored exploration is complete, so it answers any budget):
// the verdict and the violating outcomes are the same, but the schedule
// is missing, because the schedule search is bounded by the budget. That
// search is no exploration: it counts in mc.witness_runs alone, and
// running out of budget does not count as a truncated run.
func TestWarmViolationEqualsCold(t *testing.T) {
	t.Setenv("FENCEPLACE_CACHE_DIR", "")
	dir := t.TempDir()
	one := fenceplace.WithWorkers(1) // visit counts are pinned only at one worker

	cold, err := unfencedDekker(t, fenceplace.WithCacheDir(dir), one)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Equivalent || len(cold.Violations) == 0 || cold.Counterexample() == "" {
		t.Fatalf("unfenced dekker certified cold: %s", cold)
	}

	before := explorations()
	warm, err := unfencedDekker(t, fenceplace.WithCacheDir(dir), one)
	if err != nil {
		t.Fatal(err)
	}
	if d := explorations() - before; d != 0 {
		t.Errorf("warm run performed %d explorations, want 0", d)
	}
	if !reflect.DeepEqual(warm, cold) {
		t.Errorf("warm report differs from cold:\nwarm %s\ncold %s", warm, cold)
	}
	if w, c := warm.Counterexample(), cold.Counterexample(); w != c {
		t.Errorf("warm counterexample differs:\n%s\nvs cold:\n%s", w, c)
	}

	// A budget below both explorations' sizes: cold, it truncates...
	const small = 64
	if _, err := unfencedDekker(t, fenceplace.WithMaxStates(small), one); !errors.Is(err, fenceplace.ErrTruncated) {
		t.Fatalf("cold run at %d states returned %v, want ErrTruncated", small, err)
	}
	// ...warm, the stored explorations answer it.
	counter := func(name string) int64 { return telemetry.Default().Counter(name).Value() }
	runs, truncated, witness := explorations(), counter("mc.truncated_runs"), counter("mc.witness_runs")
	tiny, err := unfencedDekker(t, fenceplace.WithCacheDir(dir), fenceplace.WithMaxStates(small), one)
	if err != nil {
		t.Fatalf("warm run at %d states: %v", small, err)
	}
	if d := explorations() - runs; d != 0 {
		t.Errorf("warm small-budget run: mc.explore_runs +%d, want +0", d)
	}
	if d := counter("mc.truncated_runs") - truncated; d != 0 {
		t.Errorf("warm small-budget run: mc.truncated_runs +%d, want +0", d)
	}
	if d := counter("mc.witness_runs") - witness; d != 1 {
		t.Errorf("warm small-budget run: mc.witness_runs +%d, want +1", d)
	}
	if tiny.Equivalent != cold.Equivalent || tiny.VisitedTSO != cold.VisitedTSO || len(tiny.Violations) != len(cold.Violations) {
		t.Fatalf("warm small-budget report %s disagrees with cold %s", tiny, cold)
	}
	for i, v := range tiny.Violations {
		if v.Key != cold.Violations[i].Key {
			t.Errorf("violation %d: outcome %s, cold %s", i, v.Key, cold.Violations[i].Key)
		}
	}
	// The schedule search runs at one worker, so this is deterministic: 64
	// normal-form states do not reach dekker's violating terminal.
	if ce := tiny.Counterexample(); !strings.Contains(ce, "schedule not reconstructed within the state budget") {
		t.Errorf("small-budget counterexample claims a schedule:\n%s", ce)
	}
}

// flipEntries bit-flips the last byte of every stored entry of the given
// record kind and returns how many it damaged.
func flipEntries(t *testing.T, dir, kind string) int {
	t.Helper()
	st, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var flipped int
	err = filepath.Walk(dir, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, ".art") {
			return err
		}
		if data, ok := st.Peek(strings.TrimSuffix(filepath.Base(path), ".art")); !ok || mc.RecordKind(data) != kind {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		data[len(data)-1] ^= 0x01
		flipped++
		return os.WriteFile(path, data, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
	return flipped
}

// TestCorruptTSOEntryReexplored damages only the TSO outcome set: the next
// certification serves the SC baseline warm, quarantines the TSO entry,
// explores the TSO side again and writes it back.
func TestCorruptTSOEntryReexplored(t *testing.T) {
	t.Setenv("FENCEPLACE_CACHE_DIR", "")
	dir := t.TempDir()
	opt := fenceplace.WithCacheDir(dir)
	cold, err := fenceplace.CertifyCtx(context.Background(), freshControlResult(), nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if n := flipEntries(t, dir, "TSO-outcomes"); n != 1 {
		t.Fatalf("flipped %d TSO entries, want 1", n)
	}

	st, _ := store.Open(dir)
	qBefore := st.Stats().Quarantined
	scBefore, allBefore := scExplorations(), explorations()
	rep, err := fenceplace.CertifyCtx(context.Background(), freshControlResult(), nil, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Equivalent != cold.Equivalent || rep.TSOOutcomes != cold.TSOOutcomes {
		t.Fatalf("verdict changed over a corrupt TSO entry: %s vs %s", rep, cold)
	}
	if d := scExplorations() - scBefore; d != 0 {
		t.Errorf("%d SC explorations, want 0 (the baseline entry is intact)", d)
	}
	if d := explorations() - allBefore; d != 1 {
		t.Errorf("%d explorations, want 1 (the TSO side again)", d)
	}
	if d := st.Stats().Quarantined - qBefore; d != 1 {
		t.Errorf("%d entries quarantined, want 1", d)
	}
	if kinds := entryKinds(t, dir); kinds["TSO-outcomes"] != 1 {
		t.Errorf("TSO entry not written back: %v", kinds)
	}
}

// TestIncompleteTSOExplorationNotStored: a TSO exploration that runs out
// of budget or is cancelled leaves no entry; only the complete SC baseline
// it certified against is stored.
func TestIncompleteTSOExplorationNotStored(t *testing.T) {
	t.Setenv("FENCEPLACE_CACHE_DIR", "")

	// Truncated: dekker's SC side fits in the budget, its TSO side does
	// not. The budget comes from a full one-worker run, so a reduction
	// that shrinks either side moves it along.
	full, err := fenceplace.CertifyCtx(context.Background(), freshControlResult(), nil,
		fenceplace.WithCacheDir(""), fenceplace.WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	budget := (full.VisitedSC + full.VisitedTSO) / 2
	if full.VisitedSC > budget || full.VisitedTSO <= budget {
		t.Fatalf("dekker explores %d SC / %d TSO states at one worker: no budget closes the SC side only",
			full.VisitedSC, full.VisitedTSO)
	}
	dir := t.TempDir()
	_, err = fenceplace.CertifyCtx(context.Background(), freshControlResult(), nil,
		fenceplace.WithCacheDir(dir), fenceplace.WithMaxStates(budget), fenceplace.WithWorkers(1))
	if !errors.Is(err, fenceplace.ErrTruncated) || !strings.Contains(err.Error(), "TSO exploration") {
		t.Fatalf("certification returned %v, want a truncated TSO exploration", err)
	}
	if kinds := entryKinds(t, dir); !reflect.DeepEqual(kinds, map[string]int{"SC-baseline": 1}) {
		t.Errorf("truncated TSO exploration left %v, want only the SC baseline", kinds)
	}

	// Cancelled: stop the certification at the TSO exploration's first
	// heartbeat.
	dir = t.TempDir()
	m := progs.ByName("msqueue")
	pp := m.Defaults
	pp.Threads = 3
	pp.Size = 4
	res := fenceplace.Analyze(m.Build(pp), fenceplace.Control)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err = fenceplace.CertifyCtx(ctx, res, nil,
		fenceplace.WithCacheDir(dir), fenceplace.WithMaxStates(1<<26),
		fenceplace.WithProgressInterval(time.Millisecond),
		fenceplace.WithProgress(func(ev fenceplace.ProgressEvent) {
			if ev.Mode == "TSO" {
				cancel()
			}
		}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled certification returned %v, want context.Canceled", err)
	}
	if kinds := entryKinds(t, dir); !reflect.DeepEqual(kinds, map[string]int{"SC-baseline": 1}) {
		t.Errorf("cancelled TSO exploration left %v, want only the SC baseline", kinds)
	}
}
