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
	"fmt"
	"os"
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

	// sess is the producing pass session; certification reuses its
	// memoized SC baseline so N variants of one program cost one SC
	// exploration. Nil only for hand-built Results.
	sess *passes.Session

	// cfg carries the producing analyzer's resolved options (cfgOK true),
	// so option-less CertifyCtx calls inherit them — one option list
	// configures the whole pipeline. Hand-built Results have neither.
	cfg   config
	cfgOK bool
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
// defaults for its certification-side methods (Baseline), so one option
// list can configure the whole pipeline.
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
	res.sess = sess
	res.cfg, res.cfgOK = a.cfg, true
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
// read-only. It exists for tooling built on the module (the experiment
// harness, custom reports).
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

// CertOptions tunes a certification run. The zero value uses the model
// checker's defaults (GOMAXPROCS workers, 2M-state budget, partial-order
// reduction on, fingerprint seen-sets) and no baseline persistence beyond
// $FENCEPLACE_CACHE_DIR.
//
// Deprecated: CertOptions predates the unified Option set; use the
// functional options (WithMaxStates, WithWorkers, WithCacheDir, …) with
// CertifyCtx/BaselineCtx instead. It remains as an adapter — Options
// converts — and every entry point taking it is a thin wrapper over the
// Option-based path.
type CertOptions struct {
	MaxStates int64 // state budget per exploration; exceeded => error
	Workers   int   // parallel exploration workers
	BufferCap int   // TSO store-buffer capacity modeled (default 4)
	MemoryCap int   // memory budget in arena words (default 1<<22; <0 uncapped)
	ExactSeen bool  // exact string-keyed seen sets (slow oracle mode)
	NoPOR     bool  // disable partial-order reduction (cross-check oracle)

	// SpillDir names the scratch area sealed seen-set runs spill to when
	// an exploration outgrows the MemoryCap-derived seen-set budget (see
	// WithSpillDir). Empty keeps sealed runs in RAM.
	SpillDir string

	// CacheDir names a persistent, content-addressed exploration store
	// (internal/store): SC and TSO explorations are looked up there by
	// canonical program+config hash before running and written back
	// after, so repeated certification runs — across processes and
	// machines — warm-start past both explorations. Empty means the
	// FENCEPLACE_CACHE_DIR environment variable, then no persistence.
	// Corrupt or truncated store entries degrade to cache misses (and are
	// quarantined); they can never yield a wrong certification.
	CacheDir string
}

// EffectiveCacheDir resolves the baseline store directory the options
// select: the explicit CacheDir, else $FENCEPLACE_CACHE_DIR, else "" (no
// persistence). Note that it re-reads the environment on every call;
// Options resolves the directory exactly once, which is why multi-program
// drivers must convert once up front rather than calling this per
// certification.
//
// Deprecated: resolve once via Options and WithCacheDir.
func (o CertOptions) EffectiveCacheDir() string {
	if o.CacheDir != "" {
		return o.CacheDir
	}
	return os.Getenv("FENCEPLACE_CACHE_DIR")
}

// Options converts the deprecated struct into the unified functional-
// option form. The cache directory is resolved (environment included)
// exactly once, here, so the resulting options pin one store directory no
// matter how often or late they are applied.
func (o CertOptions) Options() []Option {
	opts := []Option{
		WithMaxStates(o.MaxStates),
		WithWorkers(o.Workers),
		WithBufferCap(o.BufferCap),
		WithMemoryCap(o.MemoryCap),
		WithCacheDir(o.EffectiveCacheDir()),
	}
	if o.SpillDir != "" {
		// An unset SpillDir keeps the $FENCEPLACE_SPILL_DIR fallback alive
		// (resolved once, like the cache directory).
		opts = append(opts, WithSpillDir(o.SpillDir))
	}
	if o.ExactSeen {
		opts = append(opts, WithExactSeen())
	}
	if o.NoPOR {
		opts = append(opts, WithNoPOR())
	}
	return opts
}

// MCConfig maps the certification options onto a model-checker
// configuration. Every exploration-shaping Config field has a CertOptions
// counterpart, so the session-baseline path and the standalone path
// explore identically; it is exported as the single source of this mapping
// for tooling built on the module (the experiment harness). CacheDir is
// deliberately absent: it routes through the baseline loader, not the
// exploration.
func (o CertOptions) MCConfig() mc.Config {
	return mc.Config{
		MaxStates: o.MaxStates,
		Workers:   o.Workers,
		BufferCap: o.BufferCap,
		MemoryCap: o.MemoryCap,
		SpillDir:  o.SpillDir,
		ExactSeen: o.ExactSeen,
		NoPOR:     o.NoPOR,
	}
}

// CertBaseline is a reusable SC exploration of one program — the half of
// a certification every fence-placement variant shares (see
// Analyzer.Baseline and internal/mc).
type CertBaseline = mc.Baseline

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

// Certify model-checks an analysis result: it explores every interleaving
// (and store-buffer drain schedule) of the instrumented program under
// x86-TSO and of the original program under SC, and reports whether the
// reachable final-state sets coincide — the paper's guarantee, decided
// exhaustively. The program is explored from its main function; use
// CertifyThreads for litmus-style programs without one.
func Certify(res *Result) (*CertReport, error) {
	return CertifyThreads(res, nil)
}

// CertifyThreads is Certify with an explicit set of flat thread functions
// run concurrently from the initial state (the litmus configuration).
func CertifyThreads(res *Result, threads []string) (*CertReport, error) {
	return CertifyOpt(res, threads, CertOptions{})
}

// CertifyOpt is CertifyThreads with explicit exploration options.
//
// Deprecated: use CertifyCtx with the unified Option set; this wrapper
// converts opt via CertOptions.Options and runs with a background context.
func CertifyOpt(res *Result, threads []string, opt CertOptions) (*CertReport, error) {
	return CertifyCtx(context.Background(), res, threads, opt.Options()...)
}

// CertifyCtx model-checks an analysis result under an explicit context and
// option set. With no options given, a Result produced by an Analyzer
// inherits the analyzer's construction-time options — one option list
// configures analysis and certification alike; passing any option
// replaces the configuration wholesale. Results produced by an Analyzer
// certify against the SC baseline memoized in the producing session, so
// certifying all strategies of one program performs at most one SC
// exploration; hand-built Results build (or load) a baseline per call.
// With a cache directory in play (WithCacheDir or $FENCEPLACE_CACHE_DIR)
// both paths consult the persistent exploration store first, for the SC
// baseline and for the variant's TSO outcome set, and write fresh
// explorations back, so a warm store eliminates both explorations across
// processes. A stored exploration is complete, so it answers any state
// budget.
//
// Cancelling ctx abandons whichever exploration is in flight promptly and
// returns ctx's error: exploration workers drain their frontiers instead
// of finishing, no baseline is written back to the store, and the
// session's in-memory memo drops the cancelled attempt so a later call
// with a live context retries.
func CertifyCtx(ctx context.Context, res *Result, threads []string, opts ...Option) (rep *CertReport, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, mc.AsInternalError("fenceplace: certify", r)
		}
	}()
	var c config
	if len(opts) == 0 && res.cfgOK {
		c = res.cfg
	} else {
		c = resolve(opts)
	}
	cfg := c.mcConfig()
	ctx = c.exploreCtx(ctx) // WithProgress streams every exploration below
	if res.sess != nil {
		base, err := res.sess.CertBaselineAtCtx(ctx, threads, cfg, c.cacheDir)
		if err != nil {
			return nil, err
		}
		return passes.CertifyAgainstCtx(ctx, base, res.Instrumented, cfg, c.cacheDir)
	}
	base, _, err := passes.LoadOrExploreBaselineCtx(ctx, res.Prog, threads, cfg, c.cacheDir)
	if err != nil {
		return nil, err
	}
	return passes.CertifyAgainstCtx(ctx, base, res.Instrumented, cfg, c.cacheDir)
}

// Baseline returns the analyzer's memoized SC exploration for the given
// entry configuration (nil threads explores from main), computing it on
// first use — or loading it from the persistent baseline store when
// opt.CacheDir (or $FENCEPLACE_CACHE_DIR) names one.
//
// Deprecated: use BaselineCtx with the unified Option set.
func (a *Analyzer) Baseline(threads []string, opt CertOptions) (*CertBaseline, error) {
	return a.BaselineCtx(context.Background(), threads, opt.Options()...)
}

// BaselineCtx returns the analyzer's memoized SC exploration for the given
// entry configuration (nil threads explores from main), computing it on
// first use — or loading it from the persistent baseline store when the
// options (or $FENCEPLACE_CACHE_DIR) name one. With no options given, the
// analyzer's own construction-time options apply, so one option list can
// configure analysis and certification alike. Callers fanning
// certification out over variants — or over expert builds of the same
// program that no Result carries — pair it with mc.CertifyAgainst via
// CertifyCtx's session reuse or internal tooling.
func (a *Analyzer) BaselineCtx(ctx context.Context, threads []string, opts ...Option) (base *CertBaseline, err error) {
	defer func() {
		if r := recover(); r != nil {
			base, err = nil, mc.AsInternalError("fenceplace: baseline", r)
		}
	}()
	c := a.cfg
	if len(opts) > 0 {
		c = resolve(opts)
	}
	return a.sess.CertBaselineAtCtx(c.exploreCtx(ctx), threads, c.mcConfig(), c.cacheDir)
}

// CertifyProgramCtx certifies an arbitrary instrumented build of the
// analyzer's program — typically an expert manual placement that no
// Result carries — against the session's shared SC baseline: one TSO
// exploration, with the SC side served from the memo (or the persistent
// store) like every other certification of this analyzer, and the TSO
// side from the store when it holds this build's outcome set. With no
// options given, the analyzer's construction-time options apply.
func (a *Analyzer) CertifyProgramCtx(ctx context.Context, inst *Program, threads []string, opts ...Option) (rep *CertReport, err error) {
	defer func() {
		if r := recover(); r != nil {
			rep, err = nil, mc.AsInternalError("fenceplace: certify program", r)
		}
	}()
	c := a.cfg
	if len(opts) > 0 {
		c = resolve(opts)
	}
	cfg := c.mcConfig()
	ctx = c.exploreCtx(ctx)
	base, err := a.sess.CertBaselineAtCtx(ctx, threads, cfg, c.cacheDir)
	if err != nil {
		return nil, err
	}
	return passes.CertifyAgainstCtx(ctx, base, inst, cfg, c.cacheDir)
}
