// Package passes is the pass manager of the static pipeline. A Session
// owns one finalized ir.Program and memoizes every pass artifact — alias
// analysis, escape analysis, per-function CFGs and slicer indexes,
// Pensieve ordering generation, acquire detection per variant, DRF pruning
// and fence minimization per strategy — so the strategy-independent passes
// (alias, escape, ordering generation, the shared indexes) run exactly
// once no matter how many placement strategies are evaluated. It also
// memoizes the model-checker explorations certification needs: the SC
// baseline, and the TSO exploration of each distinct build. Per-function
// work (CFG construction, slicing, ordering generation) fans out over a
// bounded worker pool.
//
// Every artifact is immutable once computed and every memoization is
// guarded, so a Session may be used from any number of goroutines:
// strategies can be analyzed in parallel, and a corpus driver can analyze
// many programs each with its own Session.
package passes

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"time"

	"fenceplace/internal/acquire"
	"fenceplace/internal/alias"
	"fenceplace/internal/cfg"
	"fenceplace/internal/escape"
	"fenceplace/internal/fence"
	"fenceplace/internal/ir"
	"fenceplace/internal/mc"
	"fenceplace/internal/orders"
	"fenceplace/internal/par"
	"fenceplace/internal/slicer"
	"fenceplace/internal/store"
	"fenceplace/internal/telemetry"
	"fenceplace/internal/tso"
)

// Strategy selects a fence-placement variant; the public
// fenceplace.Strategy is an alias of it.
type Strategy int

const (
	// PensieveOnly places fences for every generated ordering.
	PensieveOnly Strategy = iota
	// Control prunes orderings using control acquires (Listing 1).
	Control
	// AddressControl prunes using control and address acquires (Listing 3).
	AddressControl
	numStrategies
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

// Strategies lists all placement strategies.
var Strategies = [...]Strategy{PensieveOnly, Control, AddressControl}

// Timing records one pass execution: its own wall time, excluding the
// passes it depends on (dependencies are resolved before the clock starts).
type Timing struct {
	Pass     string
	Duration time.Duration
}

// Option configures a Session.
type Option func(*Session)

// Workers bounds the per-function fan-out; n < 1 means GOMAXPROCS.
func Workers(n int) Option {
	return func(s *Session) { s.workers = n }
}

// memo is a lazily-computed, concurrency-safe pass artifact.
type memo[T any] struct {
	once sync.Once
	v    T
}

func (m *memo[T]) get(f func() T) T {
	m.once.Do(func() { m.v = f() })
	return m.v
}

// Session is a shared analysis context for one program.
type Session struct {
	prog    *ir.Program
	workers int
	pos     map[*ir.Fn]int // function -> position in prog.Funcs

	aliasM memo[*alias.Analysis]
	escM   memo[*escape.Result]
	cfgM   memo[[]*cfg.Graph]
	idxM   memo[[]*slicer.Index]
	genM   memo[*orders.Set]
	detM   [3]memo[*acquire.Result] // indexed by acquire.Variant
	sigM   memo[acquire.Signatures]
	keptM  [numStrategies]memo[*orders.Set]
	planM  [numStrategies]memo[*fence.Plan]
	instM  [numStrategies]memo[applied]

	emu          sync.Mutex
	explorations map[explorationKey]*exploration

	tmu   sync.Mutex
	spans []telemetry.Span // completed pass executions, in completion order
	track int32            // the session's trace lane (one per Session)
}

// explorationKey identifies one memoized complete exploration: the
// structural identity of the explored build and its entry configuration
// (mc.ExplorationKey, which the persistent store trusts across processes)
// plus the full normalized config it ran under. Keying by the normalized
// config gives a different budget or worker count its own entry and lets
// a zero-valued config share the entry of an explicitly-defaulted one.
type explorationKey struct {
	id  mc.Key
	cfg mc.Config
}

// exploration is a once-per-key complete exploration. Errors are memoized
// too: a truncated exploration will not complete on retry with the same
// budget. base packages an SC exploration as a certification baseline,
// once, so every caller shares one *mc.Baseline.
type exploration struct {
	once sync.Once
	ss   *mc.StateSet
	base *mc.Baseline
	err  error
}

// NewSession finalizes the program and prepares an empty session; every
// pass runs lazily on first demand.
func NewSession(p *ir.Program, opts ...Option) *Session {
	s := &Session{prog: p, track: telemetry.NextTrack()}
	for _, o := range opts {
		o(s)
	}
	if s.workers < 1 {
		s.workers = runtime.GOMAXPROCS(0)
	}
	p.Finalize()
	s.pos = make(map[*ir.Fn]int, len(p.Funcs))
	for i, f := range p.Funcs {
		s.pos[f] = i
	}
	return s
}

// Program returns the analyzed program.
func (s *Session) Program() *ir.Program { return s.prog }

// record registers a completed pass execution as a span: appended to the
// session's span log (the source of truth behind Timings) and forwarded
// to the process trace sink, so a -trace run shows every pass on the
// session's lane.
func (s *Session) record(pass string, start time.Time) {
	sp := telemetry.Span{
		Name:  pass,
		Cat:   "pass",
		Track: s.track,
		Start: start,
		Dur:   time.Since(start),
	}
	telemetry.Emit(sp)
	s.tmu.Lock()
	s.spans = append(s.spans, sp)
	s.tmu.Unlock()
}

// Timings returns the wall time of every pass executed so far, in
// completion order: a view over the session's span log (see record).
func (s *Session) Timings() []Timing {
	s.tmu.Lock()
	defer s.tmu.Unlock()
	out := make([]Timing, len(s.spans))
	for i, sp := range s.spans {
		out[i] = Timing{Pass: sp.Name, Duration: sp.Dur}
	}
	return out
}

// TestHookForEachFn, when non-nil, runs before every function's work in
// the per-function fan-out — the chaos suite's seam for injecting a
// pass-layer panic. The pool captures the panic and re-raises it on the
// calling goroutine, where the facade's recover turns it into a
// structured InternalError on that one job's result.
var TestHookForEachFn func(i int, f *ir.Fn)

// forEachFn runs work over every function of the program, fanning out over
// the session's worker pool. work receives the function's position, so
// results can be written into preallocated per-function slots without
// locking; it must not touch other shared mutable state.
func (s *Session) forEachFn(work func(i int, f *ir.Fn)) {
	fns := s.prog.Funcs
	par.ForEach(len(fns), s.workers, func(i int) {
		if TestHookForEachFn != nil {
			TestHookForEachFn(i, fns[i])
		}
		work(i, fns[i])
	})
}

// Alias returns the memoized whole-program points-to analysis.
func (s *Session) Alias() *alias.Analysis {
	return s.aliasM.get(func() *alias.Analysis {
		defer s.record("alias", time.Now())
		return alias.Analyze(s.prog)
	})
}

// Escape returns the memoized thread-escape analysis.
func (s *Session) Escape() *escape.Result {
	return s.escM.get(func() *escape.Result {
		al := s.Alias()
		defer s.record("escape", time.Now())
		return escape.Analyze(s.prog, al)
	})
}

// cfgs builds all control-flow graphs in parallel. It is separate from
// indexes so the PensieveOnly-only path (which never slices) does not pay
// the potential-writers precomputation.
func (s *Session) cfgs() []*cfg.Graph {
	return s.cfgM.get(func() []*cfg.Graph {
		defer s.record("cfg", time.Now())
		out := make([]*cfg.Graph, len(s.prog.Funcs))
		s.forEachFn(func(i int, f *ir.Fn) {
			out[i] = cfg.New(f)
		})
		return out
	})
}

// indexes builds all slicer def/writer indexes in parallel.
func (s *Session) indexes() []*slicer.Index {
	return s.idxM.get(func() []*slicer.Index {
		al := s.Alias()
		defer s.record("slice-index", time.Now())
		out := make([]*slicer.Index, len(s.prog.Funcs))
		s.forEachFn(func(i int, f *ir.Fn) {
			out[i] = slicer.NewIndex(f, al)
		})
		return out
	})
}

// fnPos returns fn's position in the session's program, panicking on a
// function from another program (e.g. an instrumented clone) — returning
// function 0's artifacts for a foreign *ir.Fn would be silently wrong.
func (s *Session) fnPos(f *ir.Fn) int {
	i, ok := s.pos[f]
	if !ok {
		panic(fmt.Sprintf("passes: function %s does not belong to program %s", f.Name, s.prog.Name))
	}
	return i
}

// CFG returns the memoized control-flow graph of fn, which must belong to
// the session's program.
func (s *Session) CFG(f *ir.Fn) *cfg.Graph { return s.cfgs()[s.fnPos(f)] }

// Index returns the memoized slicer def/writer index of fn, which must
// belong to the session's program.
func (s *Session) Index(f *ir.Fn) *slicer.Index { return s.indexes()[s.fnPos(f)] }

// Generated returns the memoized Pensieve ordering set (before pruning),
// generated per function in parallel.
func (s *Session) Generated() *orders.Set {
	return s.genM.get(func() *orders.Set {
		esc := s.Escape()
		cfgs := s.cfgs()
		defer s.record("orders", time.Now())
		lists := make([][]orders.Ordering, len(s.prog.Funcs))
		s.forEachFn(func(i int, f *ir.Fn) {
			lists[i] = orders.GenerateFn(f, cfgs[i], esc)
		})
		set := orders.NewSet(s.prog)
		for i, f := range s.prog.Funcs {
			set.Add(f, lists[i])
		}
		return set
	})
}

// Detect returns the memoized acquire detection for a variant, sliced per
// function in parallel over the shared indexes.
func (s *Session) Detect(v acquire.Variant) *acquire.Result {
	return s.detM[v].get(func() *acquire.Result {
		esc := s.Escape()
		idx := s.indexes()
		defer s.record("acquire/"+v.String(), time.Now())
		lists := make([][]*ir.Instr, len(s.prog.Funcs))
		s.forEachFn(func(i int, f *ir.Fn) {
			lists[i] = acquire.DetectFn(f, idx[i], esc, v)
		})
		return acquire.NewResult(v, lists...)
	})
}

// Signatures returns the memoized Table II signature classification,
// reusing the Control and AddressOnly detections.
func (s *Session) Signatures() acquire.Signatures {
	return s.sigM.get(func() acquire.Signatures {
		return acquire.SignaturesOf(s.Detect(acquire.Control), s.Detect(acquire.AddressOnly))
	})
}

// acquireVariant maps a pruning strategy to its detection variant.
// PensieveOnly has none and must not be passed.
func acquireVariant(st Strategy) acquire.Variant {
	if st == AddressControl {
		return acquire.AddressControl
	}
	return acquire.Control
}

// Acquires returns the detected synchronization reads a strategy prunes
// with, or nil for PensieveOnly (which detects none).
func (s *Session) Acquires(st Strategy) *acquire.Result {
	if st == PensieveOnly {
		return nil
	}
	return s.Detect(acquireVariant(st))
}

// Kept returns the memoized post-pruning ordering set of a strategy. For
// PensieveOnly this is the generated set itself.
func (s *Session) Kept(st Strategy) *orders.Set {
	return s.keptM[st].get(func() *orders.Set {
		full := s.Generated()
		if st == PensieveOnly {
			return full
		}
		acq := s.Detect(acquireVariant(st))
		defer s.record("prune/"+st.String(), time.Now())
		return full.Prune(acq)
	})
}

// EntryFence returns the strategy's function-entry-fence policy: Pensieve
// fences every function with an escaping read (§4.4's baseline), the
// pruned variants only functions containing detected synchronization reads.
func (s *Session) EntryFence(st Strategy) func(*ir.Fn) bool {
	if st == PensieveOnly {
		esc := s.Escape()
		return func(fn *ir.Fn) bool { return len(esc.EscapingReads(fn)) > 0 }
	}
	return s.Detect(acquireVariant(st)).FnHasSync
}

// Plan returns the memoized minimized fence plan of a strategy.
func (s *Session) Plan(st Strategy) *fence.Plan {
	return s.planM[st].get(func() *fence.Plan {
		kept := s.Kept(st)
		entry := s.EntryFence(st)
		defer s.record("minimize/"+st.String(), time.Now())
		return fence.Minimize(kept, fence.Options{EntryFence: entry})
	})
}

// applied is a plan application: the instrumented clone plus the
// analyzed-to-clone instruction correspondence map.
type applied struct {
	prog *ir.Program
	imap map[*ir.Instr]*ir.Instr
}

// Applied returns the memoized application of the strategy's plan: the
// instrumented clone and its instruction correspondence map. The program
// deep-copy is made once per strategy no matter how often the strategy is
// analyzed or verified. Both returns are shared; callers must treat them
// as read-only (execute, format, verify — not mutate).
func (s *Session) Applied(st Strategy) (*ir.Program, map[*ir.Instr]*ir.Instr) {
	a := s.instM[st].get(func() applied {
		plan := s.Plan(st)
		defer s.record("apply/"+st.String(), time.Now())
		inst, imap := plan.Apply()
		return applied{prog: inst, imap: imap}
	})
	return a.prog, a.imap
}

// Instrumented returns the memoized instrumented clone (see Applied).
func (s *Session) Instrumented(st Strategy) *ir.Program {
	inst, _ := s.Applied(st)
	return inst
}

// Cache is where explorations persist: the store directory (empty: no
// persistent store) and how the store performs and retries its disk I/O.
// Neither can change an exploration's result, so neither is part of a
// baseline's in-memory or on-disk key.
type Cache struct {
	Dir string
	IO  store.Config
}

// CertBaselineAtCtx returns the memoized certification baseline of the
// session's program: its reachable final-state set under sequential
// consistency, explored at most once per session and normalized
// exploration config (see explore) no matter how many placement
// strategies are certified against it. Concurrent callers with the same
// key block on one exploration and receive one *mc.Baseline.
func (s *Session) CertBaselineAtCtx(ctx context.Context, threadFns []string, cfg mc.Config, cache Cache) (*mc.Baseline, error) {
	ncfg := cfg.Normalize()
	ncfg.Mode = tso.SC // the baseline side is always the SC exploration
	en := s.explore(ctx, s.prog, threadFns, ncfg, cache)
	return en.base, en.err
}

// CertifyAgainstCtx certifies inst, an instrumented build of the session's
// program, against base: the complete TSO exploration of inst comes from
// the session memo (see explore) and mc.Compare decides the verdict.
// Builds that place the same effective fences share one exploration (the
// TSO key leaves out fences that cannot change a TSO execution, see
// mc.ExplorationKey), so certifying strategies that agree explores the
// build once; with a warm store in
// cache a repeated certification costs a store read and an outcome-set
// comparison, no exploration.
func (s *Session) CertifyAgainstCtx(ctx context.Context, base *mc.Baseline, inst *ir.Program, cfg mc.Config, cache Cache) (*mc.Report, error) {
	ncfg := cfg.Normalize()
	ncfg.Mode = tso.TSO
	en := s.explore(ctx, inst, base.ThreadFns, ncfg, cache)
	if en.err != nil {
		return nil, en.err
	}
	return mc.Compare(ctx, base, inst, en.ss, cfg)
}

// explore returns the session's memoized complete exploration of (p,
// threadFns) under ncfg, a normalized config whose Mode picks the side:
// the SC baseline or a build's TSO outcome set. Entries are keyed by
// explorationKey, so two structurally identical builds share one entry,
// and on the TSO side so do two that differ only in no-op fences.
// Each exploration is recorded as a pass ("mc-baseline" or "mc-tso",
// with a "/warm" suffix when the store served it).
//
// The persistent store in cache (Dir empty: in-memory memoization only) is
// consulted on an in-session miss before exploring — a warm entry skips
// the exploration entirely — and a fresh exploration is written back for
// future processes (see loadOrExplore). The in-memory key ignores cache,
// so the first caller's cache decides whether and how the disk is
// involved.
//
// Genuine exploration failures (truncation, bad programs) stay memoized,
// but a cancellation is the caller's doing, not the key's: the cancelled
// entry is dropped from the session so a later call with a live context
// explores afresh. Concurrent callers that were blocked on the cancelled
// exploration observe the same ctx error for that attempt.
func (s *Session) explore(ctx context.Context, p *ir.Program, threadFns []string, ncfg mc.Config, cache Cache) *exploration {
	key := explorationKey{id: mc.ExplorationKey(p, threadFns, ncfg), cfg: ncfg}

	s.emu.Lock()
	if s.explorations == nil {
		s.explorations = make(map[explorationKey]*exploration)
	}
	en := s.explorations[key]
	if en == nil {
		en = &exploration{}
		s.explorations[key] = en
	}
	s.emu.Unlock()

	en.once.Do(func() {
		start := time.Now()
		ss, warm, err := loadOrExplore(ctx, p, threadFns, ncfg, key.id, cache)
		pass := "mc-tso"
		if ncfg.Mode == tso.SC {
			pass = "mc-baseline"
		}
		if warm {
			pass += "/warm"
		}
		s.record(pass, start)
		en.ss, en.err = ss, err
		if err == nil && ncfg.Mode == tso.SC {
			en.base = &mc.Baseline{Prog: p, ThreadFns: threadFns, Cfg: ncfg, SC: ss}
		}
	})
	if en.err != nil && (errors.Is(en.err, context.Canceled) || errors.Is(en.err, context.DeadlineExceeded)) {
		s.emu.Lock()
		if s.explorations[key] == en {
			delete(s.explorations, key)
		}
		s.emu.Unlock()
	}
	return en
}

// loadOrExplore produces the complete exploration of (p, threadFns) under
// ncfg.Mode — an SC baseline or a TSO outcome set — consulting the
// persistent store in cache (Dir empty: none) first under key, which is
// mc.ExplorationKey(p, threadFns, ncfg). A verified store entry is decoded
// and returned without exploring (warm = true), whatever ncfg.MaxStates
// is: a stored exploration is complete, so it answers any budget. A miss
// falls back to a fresh exploration whose result is written back. The
// rules:
//
//   - a corrupt or undecodable entry is quarantined and treated as a miss;
//   - a truncated exploration is an error wrapping mc.ErrTruncated and is
//     never stored;
//   - a cancelled exploration returns ctx's error and writes nothing (store
//     reads, the exploration and the write-back all observe ctx, and the
//     store's atomic rename already rules out partial entries);
//   - an unusable cache directory degrades to the uncached path:
//     persistence is an optimization and must never fail a certification
//     that exploration could complete.
func loadOrExplore(ctx context.Context, p *ir.Program, threadFns []string, ncfg mc.Config, key mc.Key, cache Cache) (ss *mc.StateSet, warm bool, err error) {
	var st *store.Store
	var name string
	if cache.Dir != "" {
		var serr error
		st, serr = store.OpenConfig(cache.Dir, cache.IO)
		if serr != nil {
			// The cache directory is unusable (unwritable, unreachable):
			// the first rung of the degradation ladder — certify uncached.
			store.NoteUncached()
			st = nil
		}
		if st != nil {
			name = key.String()
			if data, ok := st.GetCtx(ctx, name); ok {
				if ss, err := mc.UnmarshalExploration(ncfg.Mode, data); err == nil {
					return ss, true, nil
				}
				// The framing verified but the record did not decode (e.g.
				// an incompatible codec version): reclassify as a miss and
				// quarantine.
				st.Reject(name)
			}
		}
	}

	ss, err = mc.ExploreCompleteCtx(ctx, p, threadFns, ncfg)
	if err != nil {
		if errors.Is(err, mc.ErrTruncated) {
			// The last rung of the degradation ladder: the budget is truly
			// exhausted and the verdict is explicitly three-valued.
			store.NoteDegraded(store.DegradeTruncated)
		}
		return nil, false, err
	}
	if st != nil {
		if data, merr := mc.MarshalExploration(ncfg.Mode, ss); merr == nil {
			// Best-effort write-back; a failure on a live ctx means the
			// cache could not absorb this exploration — the next run pays
			// it again, so meter the uncached rung.
			if perr := st.PutCtx(ctx, name, data); perr != nil && ctx.Err() == nil {
				store.NoteUncached()
			}
		}
	}
	return ss, false, nil
}
