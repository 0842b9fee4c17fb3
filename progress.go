package fenceplace

import (
	"context"
	"time"

	"fenceplace/internal/mc"
)

// ProgressKind discriminates the streams multiplexed onto one progress
// sink.
type ProgressKind int

const (
	// ProgressExplore is an exploration heartbeat: a running (or just
	// finished, when Final is set) model-checker exploration sampled at the
	// configured interval.
	ProgressExplore ProgressKind = iota
	// ProgressRow is a corpus-row completion event from corpus.Runner.
	ProgressRow
)

// ProgressEvent is one update on a streaming certification or corpus run.
// Exploration heartbeats carry the model checker's live counters; row
// events carry corpus completion counts. Elapsed is always set: time since
// the exploration (respectively the corpus run) started.
type ProgressEvent struct {
	Kind    ProgressKind
	Program string        // program the event concerns
	Elapsed time.Duration // since the exploration / run started

	// Exploration heartbeats (Kind == ProgressExplore):
	Mode         string  // "SC" or "TSO"
	States       int64   // states expanded so far
	StatesPerSec float64 // throughput over the heartbeat window
	Frontier     int64   // states enqueued and not yet expanded
	SeenStates   int64   // distinct states in the seen set (est. table load)
	Final        bool    // closing event of this exploration, totals exact

	// Corpus rows (Kind == ProgressRow):
	Index     int // the row's corpus index
	RowsDone  int // rows completed so far, this one included
	RowsTotal int // rows in the run
}

// WithProgress streams ProgressEvents to fn: exploration heartbeats from
// every model-checker run the configuration drives (CertifyCtx,
// CertifyProgramCtx), and row completions when the options
// configure a corpus.Runner. fn must be safe for concurrent calls —
// parallel explorations and corpus workers report concurrently. The
// default sampling interval is 250ms; tune it with WithProgressInterval.
func WithProgress(fn func(ProgressEvent)) Option {
	return func(c *config) { c.progress = fn }
}

// WithProgressInterval sets the exploration heartbeat sampling interval
// (default 250ms; d <= 0 restores the default). It has no effect without
// WithProgress.
func WithProgressInterval(d time.Duration) Option {
	return func(c *config) { c.progressEvery = d }
}

// ProgressSink resolves an option list to its progress callback (nil when
// the options carry none). Drivers that emit their own events — the
// corpus runner's per-row completions — use it to feed the sink the user
// configured with WithProgress.
func ProgressSink(opts ...Option) func(ProgressEvent) {
	return resolve(opts).progress
}

// defaultProgressEvery is the heartbeat interval WithProgress uses unless
// WithProgressInterval overrides it.
const defaultProgressEvery = 250 * time.Millisecond

// exploreCtx decorates ctx with the configuration's progress sink, bridged
// to the model checker's Progress stream. Without a sink it returns ctx
// unchanged, so the default path adds no context allocation.
func (c config) exploreCtx(ctx context.Context) context.Context {
	if c.progress == nil {
		return ctx
	}
	fn := c.progress
	every := c.progressEvery
	if every <= 0 {
		every = defaultProgressEvery
	}
	return mc.WithProgress(ctx, every, func(p mc.Progress) {
		fn(ProgressEvent{
			Kind:         ProgressExplore,
			Program:      p.Program,
			Elapsed:      p.Elapsed,
			Mode:         p.Mode.String(),
			States:       p.Visited,
			StatesPerSec: p.StatesPerSec,
			Frontier:     p.Frontier,
			SeenStates:   p.Seen,
			Final:        p.Final,
		})
	})
}
