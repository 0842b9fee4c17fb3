package mc

// Fault and panic tests for the model checker: a flaky spill disk must
// never change the verdict (spill failures seal in RAM and at worst cost
// re-exploration), and a worker panic must come back as a structured
// *InternalError with the process and subsequent runs unharmed.

import (
	"errors"
	"fmt"
	"testing"

	"fenceplace/internal/fsx"
	"fenceplace/internal/store"
	"fenceplace/internal/tso"
)

// checkSpillCost asserts what a faulty spill disk may cost an
// exploration: never an outcome, and re-exploration only of what a
// quarantined run held. With no run quarantined (quarantined is the
// mc.spill_quarantines delta) the visit count is the exact run's. A
// quarantine turns a spilled run's states into misses, so each may be
// explored again; at SeenBudget 1 every run holds one state, hence at
// most one extra visit per quarantined run. A quarantine can also cost
// nothing — when no later probe needs the lost state — so exact is a
// lower bound, not a strict one.
func checkSpillCost(t *testing.T, what string, got, exact *StateSet, quarantined int64) {
	t.Helper()
	t.Logf("%s: visited %d (exact %d), %d run(s) quarantined", what, got.Visited, exact.Visited, quarantined)
	if got.Truncated {
		t.Fatalf("%s: truncated", what)
	}
	sameKeys(t, what+": outcomes vs exact", keySet(got.Outcomes), keySet(exact.Outcomes))
	if quarantined == 0 && got.Visited != exact.Visited {
		t.Fatalf("%s: visited %d vs exact %d with no run quarantined", what, got.Visited, exact.Visited)
	}
	if got.Visited < exact.Visited || got.Visited > exact.Visited+quarantined {
		t.Fatalf("%s: visited %d, want within [%d, %d] after %d quarantined run(s)",
			what, got.Visited, exact.Visited, exact.Visited+quarantined, quarantined)
	}
}

// TestExploreExactUnderSpillFaults is the exactness-under-faults oracle
// check: forced spilling through a seeded flaky filesystem — transient
// EIO, ENOSPC, short writes, rename failures — must reproduce exactly
// the outcome set of the fault-free exact exploration, at the visit cost
// checkSpillCost allows. Disk trouble may cost re-exploration of spilled
// runs; it may never drop or invent an outcome. Seed 1 fails the spill
// session's setup (it covers that rung only); the others spill.
func TestExploreExactUnderSpillFaults(t *testing.T) {
	prog := sb(false)
	threads := []string{"t0", "t1"}
	exact, err := Explore(prog, threads, Config{Mode: tso.TSO, Workers: 1, ExactSeen: true})
	if err != nil {
		t.Fatal(err)
	}
	spilled := false
	for _, seed := range []int64{1, 7, 42} {
		store.ResetDegraded()
		ff := fsx.NewFaultFS(nil, fsx.FaultConfig{
			Seed: seed, EIO: 0.2, ENOSPC: 0.05, ShortWrite: 0.1, RenameFail: 0.1,
		})
		runs, quar := mSpillRuns.Value(), mSpillQuarantines.Value()
		got, err := Explore(prog, threads, Config{
			Mode: tso.TSO, Workers: 1,
			SeenBudget: 1, SpillDir: t.TempDir(), // seal on every insert
			FS: ff, IORetries: 1,
		})
		if err != nil {
			t.Fatalf("seed %d: exploration failed under spill faults: %v", seed, err)
		}
		checkSpillCost(t, fmt.Sprintf("seed %d", seed), got, exact, mSpillQuarantines.Value()-quar)
		spilled = spilled || mSpillRuns.Value() > runs
	}
	if !spilled {
		t.Fatal("no seed spilled a run: the faults never reached the spill read path")
	}
	store.ResetDegraded()
}

// TestExploreSurvivesCrashedSpillDisk pins the seal-in-RAM rung: a spill
// disk that dies entirely mid-run degrades to in-RAM sealed runs, notes
// the rung on the ladder, and still produces the exact outcome set at the
// visit cost checkSpillCost allows (runs spilled before the crash cannot
// be read back).
func TestExploreSurvivesCrashedSpillDisk(t *testing.T) {
	store.ResetDegraded()
	defer store.ResetDegraded()
	prog := sb(false)
	threads := []string{"t0", "t1"}
	exact, err := Explore(prog, threads, Config{Mode: tso.TSO, Workers: 1, ExactSeen: true})
	if err != nil {
		t.Fatal(err)
	}
	ff := fsx.NewFaultFS(nil, fsx.FaultConfig{CrashAfter: 4})
	runs, quar := mSpillRuns.Value(), mSpillQuarantines.Value()
	got, err := Explore(prog, threads, Config{
		Mode: tso.TSO, Workers: 1,
		SeenBudget: 1, SpillDir: t.TempDir(),
		FS: ff,
	})
	if err != nil {
		t.Fatalf("exploration failed after spill-disk crash: %v", err)
	}
	checkSpillCost(t, "crashed spill disk", got, exact, mSpillQuarantines.Value()-quar)
	if mSpillRuns.Value() == runs {
		t.Fatal("no run spilled before the crash")
	}
	if rung := store.DegradedMode(); rung < store.DegradeSealInRAM {
		t.Fatalf("degraded rung = %d, want at least DegradeSealInRAM", rung)
	}
}

// TestWorkerPanicBecomesInternalError pins panic isolation end to end: a
// panic injected into an exploration worker comes back from ExploreCtx as
// a structured *InternalError carrying the panic value and stack, the
// worker_panics counter ticks, and the process is healthy enough that an
// immediately following clean run succeeds with the exact outcomes.
func TestWorkerPanicBecomesInternalError(t *testing.T) {
	prog := sb(false)
	threads := []string{"t0", "t1"}
	panicsBefore := mWorkerPanics.Value()
	TestHookExpand = func(visited int64) {
		if visited >= 2 {
			panic("injected worker fault")
		}
	}
	defer func() { TestHookExpand = nil }()
	for _, workers := range []int{1, 4} {
		_, err := Explore(prog, threads, Config{Mode: tso.TSO, Workers: workers})
		var ie *InternalError
		if !errors.As(err, &ie) {
			t.Fatalf("workers=%d: err = %v, want *InternalError", workers, err)
		}
		if ie.Panic != "injected worker fault" {
			t.Fatalf("workers=%d: InternalError.Panic = %v", workers, ie.Panic)
		}
		if len(ie.Stack) == 0 {
			t.Fatalf("workers=%d: InternalError.Stack is empty", workers)
		}
	}
	if got := mWorkerPanics.Value() - panicsBefore; got < 2 {
		t.Fatalf("worker_panics delta = %d, want >= 2", got)
	}
	TestHookExpand = nil

	// The process survived: a clean run right after is exact.
	exact, err := Explore(prog, threads, Config{Mode: tso.TSO, Workers: 1, ExactSeen: true})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Explore(prog, threads, Config{Mode: tso.TSO})
	if err != nil {
		t.Fatalf("clean run after recovered panics: %v", err)
	}
	sameKeys(t, "post-panic clean run", keySet(got.Outcomes), keySet(exact.Outcomes))
}

// TestCertifyUnderStoreFaultsStaysExact runs the full certification of a
// fenced program through a flaky spill disk: the verdict must match the
// fault-free certification.
func TestCertifyUnderStoreFaultsStaysExact(t *testing.T) {
	orig, inst := sb(false), sb(true)
	threads := []string{"t0", "t1"}
	clean, err := certify(orig, inst, threads, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ff := fsx.NewFaultFS(nil, fsx.FaultConfig{Seed: 13, EIO: 0.3, ShortWrite: 0.1})
	faulty, err := certify(orig, inst, threads, Config{
		Workers: 1, SeenBudget: 1, SpillDir: t.TempDir(), FS: ff, IORetries: 2,
	})
	if err != nil {
		t.Fatalf("certification failed under store faults: %v", err)
	}
	if faulty.Equivalent != clean.Equivalent {
		t.Fatalf("verdict flipped under faults: %v vs clean %v", faulty.Equivalent, clean.Equivalent)
	}
}
