package mc

import (
	"context"
	"fmt"
	"sort"
	"strings"

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
// per entry configuration (passes.Session.CertBaselineAtCtx). Baselines
// are immutable after construction and safe for concurrent use by any
// number of Compare calls.
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
// certifies through passes.CertifyAgainstCtx instead, which serves the TSO
// side from the exploration store when it can. Like NewBaselineCtx, this
// store-less twin stays for the benchmark module's traced driver
// (bench/direct.go, bench/measure.go) and for tests, until the ROADMAP's
// benchmark item moves that driver onto passes.
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
// loaded from the store. It diffs the outcome sets and, for every TSO-only
// outcome, reconstructs a schedule by a witness search over inst. That
// search is a sequential DFS bounded by cfg.MaxStates (counted in
// mc.witness_runs, not mc.explore_runs), so a budget too small to find a
// schedule leaves the violation without one but never changes the
// verdict. A truncated ts is an error wrapping ErrTruncated.
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

	schedules := witness(ctx, inst, base.ThreadFns, tsoCfg, targets)
	keys := make([]string, 0, len(targets))
	for k := range targets {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		r.Violations = append(r.Violations, Violation{
			Key:      k,
			Globals:  ts.Outcomes[k],
			Schedule: schedules[k],
		})
	}
	return r, nil
}

// wframe is one level of the witness DFS: the state it entered with, the
// step that produced it, and the enabled transitions left to try.
type wframe struct {
	s    *state
	step Step
	bits []int
	i    int
}

// witness reconstructs, by sequential depth-first search over the
// transition graph without partial-order reduction, one schedule per
// target outcome key. The
// search stops when every target has a schedule, the state budget runs
// out, or ctx is cancelled (polled every 1024 states to keep the loop
// cheap); missing entries stay nil.
func witness(ctx context.Context, p *ir.Program, threadFns []string, cfg Config, targets map[string]bool) map[string][]Step {
	mWitnessRuns.Inc(0)
	e, init, err := newEngine(p, threadFns, cfg)
	if err != nil {
		return nil
	}
	out := make(map[string][]Step, len(targets))
	remaining := len(targets)
	seen := make(map[string]bool)
	var enc []uint64
	var seenKey []byte
	// firstSight marks s seen, reporting whether it was new.
	firstSight := func(s *state) bool {
		enc = e.encode(s, enc)
		seenKey = appendWordBytes(seenKey[:0], enc)
		if seen[string(seenKey)] {
			return false
		}
		seen[string(seenKey)] = true
		return true
	}

	var an analysis
	push := func(stack []*wframe, s *state, step Step) []*wframe {
		f := &wframe{s: s, step: step}
		e.analyze(s, &an)
		for bit := 0; bit < 2*MaxThreads; bit++ {
			if an.enabled&(1<<uint(bit)) != 0 {
				f.bits = append(f.bits, bit)
			}
		}
		return append(stack, f)
	}

	firstSight(init)
	stack := push(nil, init, Step{})
	var visited int64

	for len(stack) > 0 && remaining > 0 {
		top := stack[len(stack)-1]
		if top.i == 0 {
			visited++
			if visited > e.cfg.MaxStates {
				return out
			}
			if visited&1023 == 0 && ctx.Err() != nil {
				return out
			}
			key := ""
			if top.s.terminal() {
				key = e.outcomeKey(top.s, "")
			} else if len(top.bits) == 0 {
				key = e.outcomeKey(top.s, "!deadlock")
			}
			if key != "" {
				if targets[key] && out[key] == nil {
					sched := make([]Step, 0, len(stack)-1)
					for _, f := range stack[1:] {
						sched = append(sched, f.step)
					}
					out[key] = sched
					remaining--
				}
			}
		}
		if top.i >= len(top.bits) {
			stack = stack[:len(stack)-1]
			continue
		}
		bit := top.bits[top.i]
		top.i++
		child := top.s.clone()
		var step Step
		if bit < MaxThreads {
			in := child.Threads[bit].Next()
			step = Step{Thread: bit, Desc: in.String()}
			if err := e.step(child, bit); err != nil {
				continue
			}
		} else {
			tid := bit - MaxThreads
			en := child.Threads[tid].Buf[0]
			step = Step{Thread: tid, Drain: true, Desc: fmt.Sprintf("%s = %d", e.addrName(en.Addr), en.Val)}
			child.Drain(tid)
		}
		if !firstSight(child) {
			continue
		}
		stack = push(stack, child, step)
	}
	return out
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
