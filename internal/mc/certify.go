package mc

import (
	"context"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"fenceplace/internal/ir"
	"fenceplace/internal/tso"
)

// Step is one scheduling decision of a counterexample: either thread
// Thread executes its next instruction, or it retires the oldest entry of
// its store buffer.
type Step struct {
	Thread int
	Drain  bool
	Desc   string // printable form of the instruction or retired store
}

func (s Step) String() string {
	if s.Drain {
		return fmt.Sprintf("t%d: <drain> %s", s.Thread, s.Desc)
	}
	return fmt.Sprintf("t%d: %s", s.Thread, s.Desc)
}

// Violation is one final state reachable under TSO but not under SC, with a
// concrete schedule reaching it when reconstruction succeeded.
type Violation struct {
	Key      string  // printable outcome key
	Globals  []int64 // final global values
	Schedule []Step  // interleaving + drain schedule; nil if not reconstructed
}

// Report is the result of one certification run.
type Report struct {
	Program     string
	Equivalent  bool // TSO(instrumented) reaches exactly the SC final states
	SCOutcomes  int
	TSOOutcomes int
	VisitedSC   int64       // states visited exploring the original under SC
	VisitedTSO  int64       // states visited exploring the instrumented under TSO
	Missing     []string    // SC-only outcomes (engine invariant: always empty)
	Violations  []Violation // TSO-only outcomes
}

// String renders a one-paragraph verdict.
func (r *Report) String() string {
	var sb strings.Builder
	verdict := "CERTIFIED SC-equivalent"
	if !r.Equivalent {
		verdict = "NOT SC-equivalent"
	}
	fmt.Fprintf(&sb, "%s: %s; %d SC outcomes (%d states), %d TSO outcomes (%d states)",
		r.Program, verdict, r.SCOutcomes, r.VisitedSC, r.TSOOutcomes, r.VisitedTSO)
	if len(r.Violations) > 0 {
		fmt.Fprintf(&sb, "; %d TSO-only outcome(s)", len(r.Violations))
	}
	if len(r.Missing) > 0 {
		fmt.Fprintf(&sb, "; %d SC outcome(s) unreachable under TSO", len(r.Missing))
	}
	return sb.String()
}

// Counterexample renders the first reconstructed violation schedule, or ""
// when the report is clean.
func (r *Report) Counterexample() string {
	for _, v := range r.Violations {
		var sb strings.Builder
		fmt.Fprintf(&sb, "non-SC outcome %s via schedule:\n", v.Key)
		if v.Schedule == nil {
			sb.WriteString("  (schedule not reconstructed within the state budget)\n")
			return sb.String()
		}
		for _, st := range v.Schedule {
			fmt.Fprintf(&sb, "  %s\n", st)
		}
		return sb.String()
	}
	return ""
}

// Baseline is the SC half of a certification, computed once and reusable:
// the reachable final-state set of the original (uninstrumented) program
// under sequential consistency. Every fence-placement variant of one
// program certifies against the same SC state space, so exploring it once
// per program — instead of once per variant — removes the dominant
// redundant work of corpus certification. The pass session memoizes one
// per entry configuration and exploration config
// (passes.Session.CertBaselineAtCtx). Baselines are immutable after
// construction and safe for concurrent use by any number of Compare calls.
type Baseline struct {
	Prog      *ir.Program // the original program the SC set belongs to
	ThreadFns []string    // entry configuration the set was explored under
	Cfg       Config      // normalized exploration config (Mode forced to SC)
	SC        *StateSet   // the reachable SC final states
}

// NewBaselineCtx explores the original program under sequential
// consistency and packages the result; a truncated exploration is an
// error wrapping ErrTruncated, a cancelled one returns ctx's error. The
// pipeline builds its baselines in passes.Session.CertBaselineAtCtx
// instead, which adds the session memo and the exploration store. This
// store-less twin stays for the benchmark module's traced driver
// (bench/direct.go, bench/measure.go), which calls it directly, and for
// tests; the ROADMAP's benchmark item moves that driver onto passes.
func NewBaselineCtx(ctx context.Context, orig *ir.Program, threadFns []string, cfg Config) (*Baseline, error) {
	scCfg := cfg.withDefaults()
	scCfg.Mode = tso.SC
	sc, err := ExploreCompleteCtx(ctx, orig, threadFns, scCfg)
	if err != nil {
		return nil, err
	}
	return &Baseline{Prog: orig, ThreadFns: threadFns, Cfg: scCfg, SC: sc}, nil
}

// ExploreCompleteCtx is ExploreCtx for callers that need the whole state
// space — certification and the exploration store. A truncated
// exploration is an error wrapping ErrTruncated that names the program,
// the mode and the states visited.
func ExploreCompleteCtx(ctx context.Context, p *ir.Program, threadFns []string, cfg Config) (*StateSet, error) {
	ss, err := ExploreCtx(ctx, p, threadFns, cfg)
	if err != nil {
		return nil, err
	}
	if ss.Truncated {
		return nil, truncatedErr(p, cfg.Mode, ss.Visited)
	}
	return ss, nil
}

func truncatedErr(p *ir.Program, mode tso.Mode, visited int64) error {
	return fmt.Errorf("mc: certify %s: %s exploration after %d states: %w", p.Name, mode, visited, ErrTruncated)
}

// CertifyAgainstCtx certifies one instrumented variant against a prebuilt
// SC baseline: it explores inst under x86-TSO with the baseline's entry
// configuration and hands the outcome set to Compare. The pipeline
// certifies through passes.Session.CertifyAgainstCtx instead, which
// explores each distinct build once per session and serves the TSO side
// from the exploration store when it can. Like NewBaselineCtx, this
// memo-less, store-less twin stays for the benchmark module's traced
// driver (bench/direct.go, bench/measure.go) and for tests, until the
// ROADMAP's benchmark item moves that driver onto passes; it explores on
// every call.
func CertifyAgainstCtx(ctx context.Context, base *Baseline, inst *ir.Program, cfg Config) (*Report, error) {
	tsoCfg := cfg.withDefaults()
	tsoCfg.Mode = tso.TSO
	ts, err := ExploreCompleteCtx(ctx, inst, base.ThreadFns, tsoCfg)
	if err != nil {
		return nil, err
	}
	return Compare(ctx, base, inst, ts, cfg)
}

// Compare is the verdict half of every certification: it decides the
// certification of inst from ts, the complete TSO exploration of inst
// under the baseline's entry configuration, whether just explored or
// loaded from the store. It diffs the outcome sets and, for the TSO-only
// outcomes, explores inst again to find their schedules (see tracePaths).
// A budget too small for that search leaves violations without a schedule
// but never changes the verdict. A truncated ts is an error wrapping
// ErrTruncated; a cancelled search returns ctx's error, and a schedule
// that does not replay to its outcome an InternalError.
func Compare(ctx context.Context, base *Baseline, inst *ir.Program, ts *StateSet, cfg Config) (*Report, error) {
	if ts.Truncated {
		return nil, truncatedErr(inst, tso.TSO, ts.Visited)
	}
	sc := base.SC
	tsoCfg := cfg.withDefaults()
	tsoCfg.Mode = tso.TSO

	r := &Report{
		Program:     base.Prog.Name,
		SCOutcomes:  len(sc.Outcomes),
		TSOOutcomes: len(ts.Outcomes),
		VisitedSC:   sc.Visited,
		VisitedTSO:  ts.Visited,
	}
	targets := make(map[string]bool)
	for k := range ts.Outcomes {
		if _, ok := sc.Outcomes[k]; !ok {
			targets[k] = true
		}
	}
	for k := range sc.Outcomes {
		if _, ok := ts.Outcomes[k]; !ok {
			r.Missing = append(r.Missing, k)
		}
	}
	sort.Strings(r.Missing)
	r.Equivalent = len(targets) == 0 && len(r.Missing) == 0
	if len(targets) == 0 {
		return r, nil
	}

	e, root, err := tracePaths(ctx, inst, base.ThreadFns, tsoCfg, targets)
	if err != nil {
		return nil, err
	}
	keys := make([]string, 0, len(targets))
	for k := range targets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		// ts may be a memoized set other reports share.
		v := Violation{Key: k, Globals: slices.Clone(ts.Outcomes[k])}
		if path, ok := e.paths[k]; ok {
			if v.Schedule, err = e.replay(root, path, k); err != nil {
				return nil, err
			}
		}
		r.Violations = append(r.Violations, v)
	}
	return r, nil
}

// tracePaths runs the schedule search: it explores p again with path
// tracking on, at one worker so that a schedule depends on the program
// and config alone, until every target has a path or cfg.MaxStates runs
// out. It returns the engine, whose paths hold the first path that reached
// each target, and the initial state to replay them from. It counts in
// mc.witness_runs only.
func tracePaths(ctx context.Context, p *ir.Program, threadFns []string, cfg Config, targets map[string]bool) (*engine, *state, error) {
	mWitnessRuns.Inc()
	cfg.Workers = 1
	e, init, err := newEngine(p, threadFns, cfg)
	if err != nil {
		return nil, nil, err
	}
	root := init.clone() // explore normalizes init in place
	e.targets, e.paths = targets, make(map[string]*link, len(targets))
	quiet := context.WithValue(ctx, progressCtxKey{}, nil) // no progress stream
	_, err = e.explore(quiet, init, time.Now())
	e.releaseSeen()
	return e, root, err
}

// replay re-executes path from root as printable steps. After each
// transition, and before the first, it fires the det steps normalize
// merged (none under NoPOR), lowest-numbered thread first: normalize's
// scan hint never changes which thread fires. A replay that fails or
// ends on another outcome than key is an engine bug: an InternalError.
func (e *engine) replay(root *state, path *link, key string) (sched []Step, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = AsInternalError("mc: counterexample replay", r)
		}
	}()
	s, w := root.clone(), &workerCtx{}
	fire := func(bit int) {
		if tid := bit - MaxThreads; tid >= 0 {
			en := s.Threads[tid].Buf[0]
			sched = append(sched, Step{Thread: tid, Drain: true, Desc: fmt.Sprintf("%s = %d", e.addrName(en.Addr), en.Val)})
			s.Drain(tid)
			return
		}
		sched = append(sched, Step{Thread: bit, Desc: s.Threads[bit].Next().String()})
		if err := e.step(s, bit); err != nil {
			panic(err)
		}
	}
	var walk func(l *link)
	walk = func(l *link) {
		if l != nil {
			walk(l.parent)
			fire(int(l.bit))
		}
		for tid := e.detThread(s, 0); tid >= 0 && !e.cfg.NoPOR; tid = e.detThread(s, 0) {
			fire(tid)
		}
	}
	walk(path)
	e.analyze(s, &w.an)
	suffix := "!deadlock"
	if s.terminal() {
		suffix = ""
	}
	if got := e.outcomeKey(s, suffix); w.an.enabled != 0 || got != key {
		panic(fmt.Sprintf("path to %s ends on %s with transitions %#x enabled", key, got, w.an.enabled))
	}
	return sched, nil
}

// outcomeKey renders a terminal state's printable outcome key.
func (e *engine) outcomeKey(s *state, suffix string) string {
	return string(appendOutcomeKey(nil, e.m.Globals(&s.State), s.failed, suffix))
}

// addrName maps a word address back to a printable global location.
func (e *engine) addrName(addr int64) string {
	for _, g := range e.prog.Globals {
		b := e.m.Base(g)
		if addr >= b && addr < b+int64(g.Size) {
			if g.Size == 1 {
				return g.Name
			}
			return fmt.Sprintf("%s[%d]", g.Name, addr-b)
		}
	}
	return fmt.Sprintf("mem[%d]", addr)
}
