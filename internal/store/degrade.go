package store

// The graceful-degradation ladder. Every persistence failure the pipeline
// survives lands on a rung, and the rung is the contract: an exact result
// computed with less help from the disk, or an explicitly truncated
// verdict — never a silently wrong outcome set.
//
//	DegradeNone       everything worked
//	DegradeUncached   the baseline cache was unusable (unwritable dir,
//	                  failed write-back): certification re-explores from
//	                  scratch — exact, just slower
//	DegradeTruncated  the exploration budget was truly exhausted: the
//	                  verdict is explicitly three-valued (ErrTruncated)
//
// The process-wide degraded_mode gauge records the highest rung reached
// (monotonic max), so one end-of-run snapshot answers "did anything
// degrade, and how badly". A per-rung counter records how often the
// uncached fallback engaged. Rung 2 is retired (it was the seen set's
// disk spill failing); the others keep their numbers, so degraded_mode
// readings mean what they always did.

import (
	"sync"

	"fenceplace/internal/telemetry"
)

// Degradation rungs, in order of increasing severity.
const (
	DegradeNone      = 0
	DegradeUncached  = 1
	DegradeTruncated = 3
)

var (
	gDegradedMode = telemetry.NewGauge("degraded_mode")
	gDegUncached  = telemetry.NewCounter("store.degraded_uncached")
)

// degMu serializes the read-compare-set of the degraded_mode gauge.
var degMu sync.Mutex

// NoteDegraded records that the pipeline fell to the given rung. The
// degraded_mode gauge keeps the maximum rung seen so far; lower or equal
// rungs are no-ops.
func NoteDegraded(rung int) {
	degMu.Lock()
	defer degMu.Unlock()
	if int64(rung) > gDegradedMode.Value() {
		gDegradedMode.Set(int64(rung))
	}
}

// NoteUncached records one fall to the certify-uncached rung: the
// baseline cache could not be opened, read back, or written.
func NoteUncached() {
	gDegUncached.Inc()
	NoteDegraded(DegradeUncached)
}

// DegradedMode returns the highest rung recorded since process start (or
// the last ResetDegraded).
func DegradedMode() int { return int(gDegradedMode.Value()) }

// ResetDegraded clears the recorded rung — a test seam, so each chaos
// schedule observes its own ladder.
func ResetDegraded() {
	degMu.Lock()
	defer degMu.Unlock()
	gDegradedMode.Set(0)
}
