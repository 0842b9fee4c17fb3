// Package fenceplace is the public API of this module: automatic fence
// placement for legacy data-race-free programs via synchronization-read
// detection, after McPherson, Nagarajan, Sarkar and Cintra (PPoPP'15).
//
// The pipeline takes a program in the module's compiler IR (built with the
// ir builder or parsed from the textual form), runs alias and thread-escape
// analysis, detects acquire reads with one of the paper's two signatures
// algorithms, generates Pensieve-style orderings, prunes them with the DRF
// rules, and places a minimal set of x86-TSO fences:
//
//	prog := fenceplace.MustParse(src)         // or build with ir.NewProgram
//	res := fenceplace.Analyze(prog, fenceplace.Control)
//	fmt.Println(res.Summary())
//	out := fenceplace.RunTSO(res.Instrumented, 0)
//
// Strategies: PensieveOnly reproduces the baseline (no acquire knowledge),
// Control is the paper's fast variant (Listing 1), AddressControl the
// conservative one (Listing 3).
package fenceplace

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"fenceplace/internal/fence"
	"fenceplace/internal/ir"
	"fenceplace/internal/mc"
	"fenceplace/internal/orders"
	"fenceplace/internal/passes"
	"fenceplace/internal/tso"
)

// Program is the analyzed unit: globals plus functions in the module's IR.
type Program = ir.Program

// Instr is a single IR instruction; analyses report results per Instr.
type Instr = ir.Instr

// Parse reads a program in the textual IR syntax (see internal/ir.Parse).
func Parse(src string) (*Program, error) { return ir.Parse(src) }

// MustParse is Parse that panics on error, for embedded sources.
func MustParse(src string) *Program { return ir.MustParse(src) }

// Format renders a program back to its textual syntax.
func Format(p *Program) string { return ir.Format(p) }

// Strategy selects the fence-placement variant.
type Strategy int

const (
	// PensieveOnly places fences for every generated ordering (the
	// baseline the paper compares against).
	PensieveOnly Strategy = iota
	// Control prunes orderings using control acquires only (Listing 1).
	Control
	// AddressControl prunes using control and address acquires
	// (Listing 3) — the conservative variant.
	AddressControl
)

func (s Strategy) String() string {
	switch s {
	case PensieveOnly:
		return "Pensieve"
	case Control:
		return "Control"
	case AddressControl:
		return "Address+Control"
	}
	return fmt.Sprintf("strategy(%d)", int(s))
}

// ParseStrategies reads a strategy word the way the command-line tools
// and the service accept it, ignoring case and surrounding space:
// pensieve, control, addresscontrol (or address+control, ac), or all,
// which selects the three strategies in reporting order.
func ParseStrategies(word string) ([]Strategy, error) {
	switch strings.ToLower(strings.TrimSpace(word)) {
	case "pensieve":
		return []Strategy{PensieveOnly}, nil
	case "control":
		return []Strategy{Control}, nil
	case "addresscontrol", "address+control", "ac":
		return []Strategy{AddressControl}, nil
	case "all":
		return []Strategy{PensieveOnly, AddressControl, Control}, nil
	}
	return nil, fmt.Errorf("unknown strategy %q (valid choices: pensieve, control, addresscontrol, all)", word)
}

// Result carries everything the pipeline produced for one program.
type Result struct {
	Strategy Strategy
	Prog     *Program // the analyzed (uninstrumented) program

	EscapingReads int      // candidate acquires (Figure 7 denominator)
	Acquires      []*Instr // detected synchronization reads (program order)

	OrderingsGenerated int // Pensieve ordering count before pruning
	OrderingsKept      int // after DRF pruning (equal for PensieveOnly)

	FullFences       int // full fences placed, including entry fences
	CompilerBarriers int

	// Instrumented is a clone of Prog with the fences inserted; the
	// original is never mutated. Results produced by the same Analyzer
	// under the same strategy share one memoized clone — treat it as
	// read-only (execute it, format it; to edit it, Clone it first). The
	// one-shot Analyze builds a fresh Analyzer, so its clone is private.
	Instrumented *Program

	// Timings holds the per-pass wall times of the producing session,
	// populated only when the Analyzer was built WithTiming; Summary then
	// appends them to its report.
	Timings []PassTiming

	plan *fence.Plan
	kept *orders.Set

	// Verification cache: the correspondence map for Instrumented and the
	// plan that produced it. Verify reuses the memoized clone only while
	// plan still is applied (a replaced plan falls back to a fresh Apply).
	imap    map[*Instr]*Instr
	applied *fence.Plan

	// az is the producing Analyzer: certification reuses its session's
	// memoized SC baseline, so N variants of one program cost one SC
	// exploration, and inherits its options. Nil for a Result no
	// Analyzer produced, which cannot be certified.
	az *Analyzer
}

// PassTiming is one pipeline pass and its own wall time (excluding the
// passes it depends on).
type PassTiming struct {
	Pass     string
	Duration time.Duration
}

// Analyzer is a reusable analysis handle over one program: a shared pass
// session in which the strategy-independent passes (alias, escape,
// ordering generation, the slicing indexes) run once and every strategy's
// pruning and minimization is memoized. Methods are safe for concurrent
// use; AnalyzeAll evaluates strategies in parallel.
type Analyzer struct {
	sess *passes.Session
	cfg  config
}

// NewAnalyzer finalizes the program and prepares a shared analysis
// session. Passes run lazily on first demand and are computed once across
// all strategies. The analyzer's resolved options also serve as the
// defaults for certifying its Results (CertifyCtx, CertifyProgramCtx), so
// one option list can configure the whole pipeline.
func NewAnalyzer(p *Program, opts ...Option) *Analyzer {
	a := &Analyzer{cfg: resolve(opts)}
	a.sess = passes.NewSession(p, passes.Workers(a.cfg.workers))
	return a
}

// strategyOf maps the public Strategy onto the pass manager's.
func strategyOf(s Strategy) passes.Strategy {
	switch s {
	case Control:
		return passes.Control
	case AddressControl:
		return passes.AddressControl
	}
	return passes.PensieveOnly
}

// Analyze evaluates one strategy on the shared session: only the pruning,
// minimization and instrumentation specific to the strategy run anew;
// everything else is served from the session cache.
func (a *Analyzer) Analyze(s Strategy) *Result {
	res, _ := a.AnalyzeCtx(context.Background(), s) // cannot fail: the ctx never fires
	return res
}

// AnalyzeCtx is Analyze bounded by a context: the context is observed
// between pipeline passes, so a cancelled analysis stops triggering
// further pass work and returns ctx's error. Passes that completed before
// the cancellation stay memoized in the session — they are valid artifacts
// and a retry resumes past them.
func (a *Analyzer) AnalyzeCtx(ctx context.Context, s Strategy) (res *Result, err error) {
	// A panic below — the session's pass fan-out re-raises pool-goroutine
	// panics on this goroutine — costs exactly this call, not the process.
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, mc.AsInternalError("fenceplace: analyze", r)
		}
	}()
	sess := a.sess
	st := strategyOf(s)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	kept := sess.Kept(st)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	plan := sess.Plan(st)

	res = &Result{
		Strategy:           s,
		Prog:               sess.Program(),
		EscapingReads:      sess.Escape().CountReads(),
		OrderingsGenerated: sess.Generated().Total(),
		OrderingsKept:      kept.Total(),
		kept:               kept,
		plan:               plan,
	}
	if acq := sess.Acquires(st); acq != nil {
		for _, f := range sess.Program().Funcs {
			res.Acquires = append(res.Acquires, acq.SyncReads(f)...)
		}
	}
	res.FullFences = plan.FullFences()
	res.CompilerBarriers = plan.CompilerBarriers()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	res.Instrumented, res.imap = sess.Applied(st)
	res.applied = plan
	res.az = a
	if a.cfg.timing {
		res.Timings = a.passTimings(s, st)
	}
	return res, nil
}

// passTimings extracts, in pipeline order, the timings of exactly the
// passes the strategy depends on. Every listed pass has completed by the
// time Analyze reads the session (they are dependencies of the plan), so
// the result is deterministic even when sibling strategies are still
// recording theirs.
func (a *Analyzer) passTimings(s Strategy, st passes.Strategy) []PassTiming {
	byName := make(map[string]time.Duration)
	for _, t := range a.sess.Timings() {
		byName[t.Pass] = t.Duration
	}
	names := []string{"alias", "escape", "cfg", "orders"}
	if s != PensieveOnly {
		names = append(names, "slice-index", "acquire/"+st.String(), "prune/"+st.String())
	}
	names = append(names, "minimize/"+st.String(), "apply/"+st.String())
	var out []PassTiming
	for _, n := range names {
		if d, ok := byName[n]; ok {
			out = append(out, PassTiming{Pass: n, Duration: d})
		}
	}
	return out
}

// AnalyzeAll evaluates the given strategies (default: all three) in
// parallel on the shared session, returning results in argument order.
// The shared passes run once; compared to independent Analyze calls the
// three-strategy evaluation does roughly a third of the pass work. An
// analyzer bounded to one worker (WithWorkers(1)) evaluates the
// strategies inline instead, so it really is single-threaded.
func (a *Analyzer) AnalyzeAll(strategies ...Strategy) []*Result {
	out, _ := a.AnalyzeAllCtx(context.Background(), strategies...) // cannot fail: the ctx never fires
	return out
}

// AnalyzeAllCtx is AnalyzeAll bounded by a context: a cancellation stops
// triggering further pass work in every strategy's evaluation and the call
// returns ctx's error with no results.
func (a *Analyzer) AnalyzeAllCtx(ctx context.Context, strategies ...Strategy) ([]*Result, error) {
	if len(strategies) == 0 {
		strategies = []Strategy{PensieveOnly, Control, AddressControl}
	}
	out := make([]*Result, len(strategies))
	errs := make([]error, len(strategies))
	if a.cfg.workers == 1 {
		for i, s := range strategies {
			if out[i], errs[i] = a.AnalyzeCtx(ctx, s); errs[i] != nil {
				return nil, errs[i]
			}
		}
		return out, nil
	}
	var wg sync.WaitGroup
	wg.Add(len(strategies))
	for i, s := range strategies {
		go func(i int, s Strategy) {
			defer wg.Done()
			out[i], errs[i] = a.AnalyzeCtx(ctx, s)
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Analyze runs the complete static pipeline under the given strategy. It
// is the one-shot convenience over NewAnalyzer; callers evaluating several
// strategies on one program should hold an Analyzer so the shared passes
// run once.
func Analyze(p *Program, s Strategy) *Result {
	return NewAnalyzer(p).Analyze(s)
}

// AnalyzeCtx is the one-shot Analyze with a context and options: it builds
// a fresh Analyzer, so callers evaluating several strategies on one
// program should hold an Analyzer instead.
func AnalyzeCtx(ctx context.Context, p *Program, s Strategy, opts ...Option) (*Result, error) {
	return NewAnalyzer(p, opts...).AnalyzeCtx(ctx, s)
}

// CoverageError is the structured verification failure Verify returns: the
// uncovered ordering plus its location in the instrumented program and the
// fences present in the offending function (see internal/fence).
type CoverageError = fence.CoverageError

// Verify re-checks that the placed fences cover every kept ordering along
// all control-flow paths. Analyze always produces covering plans; Verify
// exists for audit trails and tests. On failure the error is a
// *CoverageError carrying the uncovered ordering, its instrumented-program
// endpoints and the function's fences (use errors.As to recover it).
func (r *Result) Verify() error {
	inst, imap := r.Instrumented, r.imap
	if imap == nil || r.applied != r.plan {
		inst, imap = r.plan.Apply()
	}
	return fence.Verify(r.kept, fence.Options{}, inst, imap)
}

// Kept returns the enforced (post-pruning) ordering set. The returned
// value is an internal analysis type shared with the session; treat it as
// read-only. It exists for tooling built on the module (custom reports).
func (r *Result) Kept() *orders.Set { return r.kept }

// Plan returns the minimized fence plan behind Instrumented; treat it as
// read-only (see Kept).
func (r *Result) Plan() *fence.Plan { return r.plan }

// Summary renders a one-paragraph report of the analysis, followed by
// per-pass timings when the producing Analyzer was built WithTiming.
func (r *Result) Summary() string {
	pruned := r.OrderingsGenerated - r.OrderingsKept
	s := fmt.Sprintf(
		"%s: %d escaping reads, %d acquires detected; %d orderings generated, %d pruned, %d enforced; %d full fences + %d compiler barriers placed",
		r.Strategy, r.EscapingReads, len(r.Acquires),
		r.OrderingsGenerated, pruned, r.OrderingsKept,
		r.FullFences, r.CompilerBarriers)
	if len(r.Timings) > 0 {
		var sb strings.Builder
		sb.WriteString(s)
		sb.WriteString("\n  passes:")
		for _, t := range r.Timings {
			fmt.Fprintf(&sb, " %s=%s", t.Pass, t.Duration.Round(time.Microsecond))
		}
		return sb.String()
	}
	return s
}

// RunOutcome is the result of executing a program on the built-in machine.
type RunOutcome = tso.Outcome

// RunTSO executes the program on the x86-TSO simulator (random scheduling
// seeded by seed, eventual store drain). Assertion failures, deadlock and
// runtime errors are reported in the outcome.
func RunTSO(p *Program, seed int64) *RunOutcome {
	return tso.Run(p, tso.Config{
		Mode: tso.TSO, Sched: tso.Random, Policy: tso.DrainRandom, Seed: seed,
	})
}

// RunSC executes the program under sequential consistency — the reference
// semantics the paper's guarantee is stated against.
func RunSC(p *Program, seed int64) *RunOutcome {
	return tso.Run(p, tso.Config{Mode: tso.SC, Sched: tso.Random, Seed: seed})
}

// CertReport is the verdict of a certification run: whether the
// instrumented program under x86-TSO reaches exactly the final states the
// original reaches under SC, with counterexample schedules when it does
// not (see internal/mc).
type CertReport = mc.Report

// ErrTruncated reports a certification whose state budget ran out; the
// verdict is then unknown, never "equivalent".
var ErrTruncated = mc.ErrTruncated

// InternalError is a panic recovered from the pipeline's worker pools (an
// exploration worker, the per-function pass fan-out) or the facade itself,
// returned as the failing call's error instead of crashing the process.
// Sibling jobs and other analyzers are unaffected. Match with errors.As:
//
//	var ie *fenceplace.InternalError
//	if errors.As(err, &ie) { log.Printf("panic: %v\n%s", ie.Panic, ie.Stack) }
type InternalError = mc.InternalError

// CertifyCtx model-checks an analysis result: it explores every
// interleaving (and store-buffer drain schedule) of the instrumented
// program under x86-TSO and of the original program under SC, and reports
// whether the reachable final-state sets coincide — the paper's guarantee,
// decided exhaustively. Nil threads explores from the program's main
// function; litmus-style programs without one pass their flat thread
// functions, which run concurrently from the initial state.
//
// It is CertifyProgramCtx on the producing Analyzer with the Result's
// instrumented build: with no options given the analyzer's
// construction-time options apply, and every strategy of one program
// certifies against the SC baseline memoized in the analyzer's session,
// so certifying all of them performs at most one SC exploration. A
// Result that no Analyzer produced returns an error.
func CertifyCtx(ctx context.Context, res *Result, threads []string, opts ...Option) (*CertReport, error) {
	if res == nil || res.az == nil {
		return nil, errors.New("fenceplace: certify: the Result was not produced by an Analyzer")
	}
	return res.az.CertifyProgramCtx(ctx, res.Instrumented, threads, opts...)
}

// CertifyProgramCtx certifies an instrumented build of the analyzer's
// program — a Result's, or an expert manual placement that no Result
// carries — against the session's shared SC baseline, and is the one
// certification path of the module. The session memoizes both
// explorations (passes.Session.CertBaselineAtCtx and
// Session.CertifyAgainstCtx): the SC baseline once per configuration and
// the TSO side once per distinct build, so strategies that place the same
// fences share one TSO exploration and re-certifying explores nothing.
// With no options given, the analyzer's construction-time options apply;
// passing any option replaces the configuration wholesale. With a cache
// directory in play (WithCacheDir or $FENCEPLACE_CACHE_DIR) both
// explorations consult the persistent exploration store first, for the SC
// baseline and for the build's TSO outcome set, and write fresh
// explorations back, so a warm store eliminates both explorations across
// processes. A stored exploration is complete, so it answers any state
// budget.
//
// Cancelling ctx abandons whichever exploration is in flight promptly and
// returns ctx's error: exploration workers drain their frontiers instead
// of finishing, nothing is written back to the store, and the session's
// in-memory memo drops the cancelled attempt so a later call with a live
// context retries.
func (a *Analyzer) CertifyProgramCtx(ctx context.Context, inst *Program, threads []string, opts ...Option) (rep *CertReport, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, mc.AsInternalError("fenceplace: certify", r)
		}
	}()
	c := a.cfg
	if len(opts) > 0 {
		c = resolve(opts)
	}
	cfg := c.mcConfig()
	ctx = c.exploreCtx(ctx) // WithProgress streams every exploration below
	base, err := a.sess.CertBaselineAtCtx(ctx, threads, cfg, c.cache())
	if err != nil {
		return nil, err
	}
	return a.sess.CertifyAgainstCtx(ctx, base, inst, cfg, c.cache())
}
