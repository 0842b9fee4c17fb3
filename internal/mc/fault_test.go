package mc

// Fault tests for the model checker: a worker panic must come back as a
// structured *InternalError with the process and subsequent runs
// unharmed.

import (
	"errors"
	"testing"

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
