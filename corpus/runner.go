package corpus

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fenceplace"
	"fenceplace/internal/mc"
	"fenceplace/internal/orders"
	"fenceplace/internal/par"
	"fenceplace/internal/telemetry"
	"fenceplace/internal/tso"
)

// Runner drives a Source through the pipeline: per program one shared
// analyzer session evaluates every strategy, the fence plans are verified,
// and — as configured — the dynamic experiment and certification run on
// each variant. The zero value analyzes the three paper strategies with
// no dynamic runs and no certification.
type Runner struct {
	// Strategies to analyze (default: PensieveOnly, AddressControl,
	// Control — the paper's display order).
	Strategies []fenceplace.Strategy

	// Seeds is the number of simulator seeds the dynamic experiment runs
	// per variant (Figure 10's averaging); 0 skips the dynamic runs.
	Seeds int

	// Certify model-checks every variant (the Manual build included, when
	// the source provides one) against the program's shared SC baseline.
	Certify bool

	// Threads is the certification entry configuration: litmus-style flat
	// thread functions, or nil to explore from main.
	Threads []string

	// Workers bounds the corpus-level fan-out (0 = GOMAXPROCS). Programs
	// are the unit of parallelism; with more than one worker each program's
	// inner analysis session is single-threaded so the pools never
	// oversubscribe the cores.
	Workers int

	// Options configures analysis and certification alike. They are
	// resolved exactly once per Run — environment-derived defaults
	// (the baseline cache directory) are pinned up front, so one run can
	// never split across two stores.
	Options []fenceplace.Option
}

// Run drives src through the pipeline and collects one row per program
// into a Report sorted by corpus index and stamped with the source's
// label. Programs run on Workers goroutines; the first failing row stops
// the run and its error is returned. Cancelling ctx abandons in-flight
// work — including any running exploration — and returns ctx's error.
func (r *Runner) Run(ctx context.Context, src Source) (*Report, error) {
	strategies := r.Strategies
	if len(strategies) == 0 {
		strategies = []fenceplace.Strategy{
			fenceplace.PensieveOnly, fenceplace.AddressControl, fenceplace.Control,
		}
	}
	workers := r.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	// Resolve the options exactly once for the whole run; see Options.
	opts := fenceplace.Resolved(r.Options...)
	innerOpts := opts
	if workers > 1 {
		// Program-level fan-out is the only parallelism competing for
		// cores; inner per-function pools stay single-threaded. (The
		// override applies to the analysis session, not to certification,
		// which runs under the caller's worker setting.)
		innerOpts = append(append([]fenceplace.Option{}, opts...), fenceplace.WithWorkers(1))
	}

	// Row-completion progress: when the run's options carry a WithProgress
	// sink, every finished row reports its corpus position. mu serializes
	// the sink calls and guards firstErr and done.
	sink := fenceplace.ProgressSink(opts...)
	var (
		mu       sync.Mutex
		firstErr error
		done     int
		stopped  atomic.Bool
	)
	total := src.Len()
	rows := make([]Row, total)
	runStart := time.Now()

	par.ForEach(total, workers, func(i int) {
		if stopped.Load() || ctx.Err() != nil {
			return
		}
		row, err := r.runOne(ctx, src, i, strategies, opts, innerOpts)
		if err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
			stopped.Store(true)
			return
		}
		rows[i] = *row
		if sink != nil {
			mu.Lock()
			done++
			sink(fenceplace.ProgressEvent{
				Kind:      fenceplace.ProgressRow,
				Program:   row.Program,
				Elapsed:   time.Since(runStart),
				Index:     row.Index,
				RowsDone:  done,
				RowsTotal: total,
			})
			mu.Unlock()
		}
	})

	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return &Report{Version: Version, Source: src.Label(), Rows: rows}, nil
}

// runOne drives one program through analysis, verification, the dynamic
// experiment and certification, producing its plain-data row.
func (r *Runner) runOne(ctx context.Context, src Source, i int, strategies []fenceplace.Strategy, opts, innerOpts []fenceplace.Option) (row *Row, err error) {
	name := src.Name(i)
	// One program's panic costs one row, not the sweep: the recovered
	// panic becomes this row's error (a structured InternalError), and
	// sibling rows — including in-flight ones on other pool goroutines —
	// run to completion.
	defer func() {
		if rec := recover(); rec != nil {
			row, err = nil, fmt.Errorf("%s: %w", name, mc.AsInternalError("corpus: row "+name, rec))
		}
	}()
	if telemetry.TraceEnabled() {
		start := time.Now()
		defer func() {
			telemetry.Emit(telemetry.Span{
				Name:  "row " + name,
				Cat:   "corpus",
				Track: telemetry.NextTrack(),
				Start: start,
				Dur:   time.Since(start),
				Args:  []telemetry.Arg{{Key: "index", Val: int64(i)}},
			})
		}()
	}
	prog := src.Build(i)
	az := fenceplace.NewAnalyzer(prog, innerOpts...)
	results, err := az.AnalyzeAllCtx(ctx, strategies...)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", name, err)
	}

	row = &Row{Index: i, Program: name, EscReads: results[0].EscapingReads}

	if manual := src.BuildManual(i); manual != nil {
		full, _ := manual.CountFences(false)
		v := Variant{Name: "Manual", FullFences: full}
		if err := r.finishVariant(ctx, az, &v, manual, opts); err != nil {
			return nil, fmt.Errorf("%s/Manual: %w", name, err)
		}
		row.Variants = append(row.Variants, v)
	}

	for _, res := range results {
		if err := res.Verify(); err != nil {
			return nil, fmt.Errorf("%s/%s: fence plan verification failed: %w", name, res.Strategy, err)
		}
		v := VariantFromResult(res)
		if err := r.finishVariant(ctx, az, &v, res.Instrumented, opts); err != nil {
			return nil, fmt.Errorf("%s/%s: %w", name, res.Strategy, err)
		}
		row.Variants = append(row.Variants, v)
	}
	return row, nil
}

// VariantFromResult renders an analyzed fence-placement result as a
// report variant: the static counts only — dynamic cycles and the
// certification verdict are the driving harness's to add. It is the one
// mapping from live results to report rows; every driver (this runner,
// the benchmark's traced path) goes through it so their tables cannot
// drift.
func VariantFromResult(res *fenceplace.Result) Variant {
	kept := res.Kept()
	return Variant{
		Name:      res.Strategy.String(),
		Analyzed:  true,
		Acquires:  len(res.Acquires),
		Generated: res.OrderingsGenerated,
		Orderings: OrderingCounts{
			RR:    kept.Count(orders.RR),
			RW:    kept.Count(orders.RW),
			WR:    kept.Count(orders.WR),
			WW:    kept.Count(orders.WW),
			Total: kept.Total(),
		},
		FullFences:       res.FullFences,
		CompilerBarriers: res.CompilerBarriers,
	}
}

// finishVariant runs the per-variant dynamic experiment and certification
// on an instrumented build.
func (r *Runner) finishVariant(ctx context.Context, az *fenceplace.Analyzer, v *Variant, inst *fenceplace.Program, opts []fenceplace.Option) error {
	for seed := 0; seed < r.Seeds; seed++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		out := tso.Run(inst, tso.Config{
			Mode:   tso.TSO,
			Sched:  tso.MinTime,
			Policy: tso.DrainRandom,
			Seed:   int64(seed),
		})
		if out.Failed() {
			return fmt.Errorf("failed under TSO: failures=%v err=%v deadlock=%v",
				out.Failures, out.Err, out.Deadlock)
		}
		v.Cycles = append(v.Cycles, out.MaxCycles)
	}
	if !r.Certify {
		return nil
	}
	rep, err := az.CertifyProgramCtx(ctx, inst, r.Threads, opts...)
	switch {
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// Cancellation aborts the run; it is not a verdict on the variant.
		return err
	case errors.Is(err, fenceplace.ErrTruncated):
		v.Cert = &Cert{Status: CertBudget, Err: err.Error()}
	case err != nil:
		v.Cert = &Cert{Status: CertError, Err: err.Error()}
	case rep.Equivalent:
		v.Cert = &Cert{
			Status:     CertCertified,
			SCOutcomes: rep.SCOutcomes, TSOOutcomes: rep.TSOOutcomes,
			VisitedSC: rep.VisitedSC, VisitedTSO: rep.VisitedTSO,
		}
	default:
		v.Cert = &Cert{
			Status:     CertViolation,
			SCOutcomes: rep.SCOutcomes, TSOOutcomes: rep.TSOOutcomes,
			VisitedSC: rep.VisitedSC, VisitedTSO: rep.VisitedTSO,
			Violations:     len(rep.Violations),
			Counterexample: rep.Counterexample(),
		}
	}
	return nil
}
