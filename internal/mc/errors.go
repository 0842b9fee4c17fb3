package mc

// Panic isolation. A panic in an exploration worker (or in the pass
// layer's per-function fan-out) must cost exactly one job: the pool
// drains cleanly, sibling explorations keep running, and the process never
// dies. The recovered panic travels as an InternalError on the failing
// job's result — a structured, inspectable error, not a crash.

import (
	"fmt"
	"runtime/debug"

	"fenceplace/internal/par"
	"fenceplace/internal/telemetry"
)

// mWorkerPanics counts every recovered worker panic process-wide;
// TestCertifyVariantsShareOneSCExploration and CI's fenced smoke assert it
// stays zero on healthy runs.
var mWorkerPanics = telemetry.NewCounter("mc.worker_panics")

// InternalError is a panic recovered from a worker goroutine, carried on
// the result of the job whose work panicked. It wraps nothing: an
// internal error is terminal for its job and matched with errors.As, not
// errors.Is.
type InternalError struct {
	Op    string // which pool the panic escaped from
	Panic any    // the recovered panic value
	Stack []byte // the panicking goroutine's stack at recovery
}

func (e *InternalError) Error() string {
	return fmt.Sprintf("%s: internal error (recovered panic): %v", e.Op, e.Panic)
}

// AsInternalError converts a value recovered from a panic into an
// InternalError attributed to op, counting it in mc.worker_panics. A
// *par.PanicError (the pool's capture, which re-panics on the caller
// goroutine) is unwrapped so the original panic value and stack survive;
// an already-converted *InternalError passes through uncounted.
func AsInternalError(op string, r any) *InternalError {
	if ie, ok := r.(*InternalError); ok {
		return ie
	}
	mWorkerPanics.Inc(0)
	if pe, ok := r.(*par.PanicError); ok {
		return &InternalError{Op: op, Panic: pe.Value, Stack: pe.Stack}
	}
	return &InternalError{Op: op, Panic: r, Stack: debug.Stack()}
}
