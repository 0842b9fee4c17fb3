package mc

// Fault and panic tests for the model checker: a flaky disk in the
// Config must never reach an exploration (the checker does no disk I/O;
// Config.FS only carries the cache's filesystem to internal/passes), and
// a worker panic must come back as a structured *InternalError with the
// process and subsequent runs unharmed.

import (
	"errors"
	"testing"

	"fenceplace/internal/fsx"
	"fenceplace/internal/tso"
)

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
// fenced program with a flaky disk in its Config: the exploration must not
// touch it, and the verdict must match the fault-free certification.
func TestCertifyUnderStoreFaultsStaysExact(t *testing.T) {
	orig, inst := sb(false), sb(true)
	threads := []string{"t0", "t1"}
	clean, err := certify(orig, inst, threads, Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	ff := fsx.NewFaultFS(nil, fsx.FaultConfig{Seed: 13, EIO: 0.3, ShortWrite: 0.1})
	faulty, err := certify(orig, inst, threads, Config{
		Workers: 1, FS: ff, IORetries: 2,
	})
	if err != nil {
		t.Fatalf("certification failed under store faults: %v", err)
	}
	if faulty.Equivalent != clean.Equivalent {
		t.Fatalf("verdict flipped under faults: %v vs clean %v", faulty.Equivalent, clean.Equivalent)
	}
	if ops := ff.Ops(); ops != 0 {
		t.Fatalf("certification made %d disk operations, want none", ops)
	}
}
