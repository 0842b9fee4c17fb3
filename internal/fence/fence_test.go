package fence

import (
	"math/rand"
	"strings"
	"testing"

	"fenceplace/internal/acquire"
	"fenceplace/internal/alias"
	"fenceplace/internal/escape"
	"fenceplace/internal/ir"
	"fenceplace/internal/orders"
)

// pipeline runs escape → orders for a program.
func pipeline(t testing.TB, p *ir.Program) (*orders.Set, *alias.Analysis, *escape.Result) {
	t.Helper()
	al := alias.Analyze(p)
	esc := escape.Analyze(p, al)
	return orders.Generate(p, esc), al, esc
}

func TestSingleFenceCoversOverlappingIntervals(t *testing.T) {
	// w(a) w(b) r(c) r(d): the two w→r orderings (a→c, a→d, b→c, b→d)
	// overlap; one full fence between the last write and the first read
	// suffices. The greedy stabbing must find exactly one.
	pb := ir.NewProgram("p")
	a := pb.Global("a", 1)
	bg := pb.Global("b", 1)
	c := pb.Global("c", 1)
	d := pb.Global("d", 1)
	fb := pb.Func("f", 0)
	one := fb.Const(1)
	fb.Store(a, one)
	fb.Store(bg, one)
	v1 := fb.Load(c)
	v2 := fb.Load(d)
	_, _ = v1, v2
	fb.RetVoid()
	p, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	set, _, _ := pipeline(t, p)
	plan := Minimize(set, Options{})
	fullCount := 0
	for _, pl := range plan.Placements {
		if pl.Kind == ir.FenceFull {
			fullCount++
		}
	}
	if fullCount != 1 {
		t.Fatalf("placed %d full fences, want 1\n%s", fullCount, plan.Describe())
	}
	inst, imap := plan.Apply()
	if err := Verify(set, Options{}, inst, imap); err != nil {
		t.Fatal(err)
	}
}

func TestDisjointIntervalsNeedTwoFences(t *testing.T) {
	// w r w r: the two w→r pairs (w1→r1) and (w2→r2) are disjoint... but
	// note w1→r2 spans both, so greedy still needs 2 stabs for the two
	// disjoint cores.
	pb := ir.NewProgram("p")
	a := pb.Global("a", 1)
	bg := pb.Global("b", 1)
	fb := pb.Func("f", 0)
	one := fb.Const(1)
	fb.Store(a, one)
	v1 := fb.Load(a)
	fb.Store(bg, one)
	v2 := fb.Load(bg)
	_, _ = v1, v2
	fb.RetVoid()
	p, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	set, _, _ := pipeline(t, p)
	plan := Minimize(set, Options{})
	fullCount := 0
	for _, pl := range plan.Placements {
		if pl.Kind == ir.FenceFull {
			fullCount++
		}
	}
	if fullCount != 2 {
		t.Fatalf("placed %d full fences, want 2\n%s", fullCount, plan.Describe())
	}
	inst, imap := plan.Apply()
	if err := Verify(set, Options{}, inst, imap); err != nil {
		t.Fatal(err)
	}
}

func TestCompilerBarriersForNonWRO(t *testing.T) {
	// w(a) w(b): a single w→w ordering needs a compiler barrier but no full
	// fence on TSO.
	pb := ir.NewProgram("p")
	a := pb.Global("a", 1)
	bg := pb.Global("b", 1)
	fb := pb.Func("f", 0)
	one := fb.Const(1)
	fb.Store(a, one)
	fb.Store(bg, one)
	fb.RetVoid()
	p, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	set, _, _ := pipeline(t, p)
	plan := Minimize(set, Options{})
	if plan.FullFences() != 0 {
		t.Fatalf("w->w needed %d full fences on TSO, want 0", plan.FullFences())
	}
	if plan.CompilerBarriers() != 1 {
		t.Fatalf("placed %d compiler barriers, want 1", plan.CompilerBarriers())
	}
	inst, imap := plan.Apply()
	if err := Verify(set, Options{}, inst, imap); err != nil {
		t.Fatal(err)
	}
}

func TestFullFenceSubsumesCompilerBarrier(t *testing.T) {
	// w(a) w(b) r(c): w→r needs a full fence; the w→w ordering's interval
	// overlaps it, so no separate compiler barrier may appear at a gap the
	// full fence already stabs.
	pb := ir.NewProgram("p")
	a := pb.Global("a", 1)
	bg := pb.Global("b", 1)
	c := pb.Global("c", 1)
	fb := pb.Func("f", 0)
	one := fb.Const(1)
	fb.Store(a, one)
	fb.Store(bg, one)
	v := fb.Load(c)
	_ = v
	fb.RetVoid()
	p, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	set, _, _ := pipeline(t, p)
	plan := Minimize(set, Options{})
	// w(a)→w(b) has interval ending before the full fence's gap choices...
	// count: the w→w interval is [store_a+1, store_b]; w→r intervals end
	// later. Greedy may need one barrier + one fence or the fence may
	// cover, depending on gaps. The invariant: every ordering covered and
	// no two placements at one gap.
	seen := map[[2]int]bool{}
	for _, pl := range plan.Placements {
		key := [2]int{pl.Block.ID(), pl.Gap}
		if seen[key] {
			t.Fatalf("two placements at the same gap\n%s", plan.Describe())
		}
		seen[key] = true
	}
	inst, imap := plan.Apply()
	if err := Verify(set, Options{}, inst, imap); err != nil {
		t.Fatal(err)
	}
}

func TestCrossBlockAnchoredAtSource(t *testing.T) {
	// Producer-style: store in entry, conditional, load in a later block.
	// The w→r ordering must be covered on every path.
	pb := ir.NewProgram("p")
	a := pb.Global("a", 1)
	bg := pb.Global("b", 1)
	fb := pb.Func("f", 1)
	one := fb.Const(1)
	fb.Store(a, one)
	fb.IfElse(fb.Gt(fb.Param(0), one), func() {
		fb.Store(bg, one)
	}, func() {})
	v := fb.Load(a)
	_ = v
	fb.RetVoid()
	p, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	set, _, _ := pipeline(t, p)
	plan := Minimize(set, Options{})
	inst, imap := plan.Apply()
	if err := Verify(set, Options{}, inst, imap); err != nil {
		t.Fatal(err)
	}
}

func TestLoopCarriedOrderingCovered(t *testing.T) {
	// store x; load y in a loop: the loop-carried r(y)→w(x) and w(x)→r(y)
	// orderings (via the back edge) must be covered.
	pb := ir.NewProgram("p")
	x := pb.Global("x", 1)
	y := pb.Global("y", 1)
	fb := pb.Func("f", 0)
	fb.ForConst(0, 8, func(i ir.Reg) {
		fb.Store(x, i)
		v := fb.Load(y)
		_ = v
	})
	fb.RetVoid()
	p, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	set, _, _ := pipeline(t, p)
	plan := Minimize(set, Options{})
	inst, imap := plan.Apply()
	if err := Verify(set, Options{}, inst, imap); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyDetectsMissingFence(t *testing.T) {
	// An empty plan over a program with a w→r ordering must fail Verify.
	pb := ir.NewProgram("p")
	a := pb.Global("a", 1)
	fb := pb.Func("f", 0)
	fb.Store(a, fb.Const(1))
	v := fb.Load(a)
	_ = v
	fb.RetVoid()
	p, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	set, _, _ := pipeline(t, p)
	empty := &Plan{Prog: p}
	inst, imap := empty.Apply()
	err = Verify(set, Options{}, inst, imap)
	if err == nil {
		t.Fatal("Verify accepted an unfenced w->r ordering")
	}
	if !strings.Contains(err.Error(), "uncovered") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestCompilerBarrierDoesNotSatisfyFullOrdering(t *testing.T) {
	// Hand-place a compiler barrier where a full fence is required; Verify
	// must reject it.
	pb := ir.NewProgram("p")
	a := pb.Global("a", 1)
	fb := pb.Func("f", 0)
	fb.Store(a, fb.Const(1))
	v := fb.Load(a)
	_ = v
	fb.RetVoid()
	p, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	set, _, _ := pipeline(t, p)
	var gap int
	var blk *ir.Block
	for _, f := range p.Funcs {
		for _, o := range set.ByFn[f] {
			b, iv := anchor(o)
			blk, gap = b, iv.lo
		}
	}
	weak := &Plan{Prog: p, Placements: []Placement{{blk, gap, ir.FenceCompiler}}}
	inst, imap := weak.Apply()
	if err := Verify(set, Options{}, inst, imap); err == nil {
		t.Fatal("compiler barrier accepted for a w->r ordering")
	}
	// The same placement as a full fence passes.
	strong := &Plan{Prog: p, Placements: []Placement{{blk, gap, ir.FenceFull}}}
	inst2, imap2 := strong.Apply()
	if err := Verify(set, Options{}, inst2, imap2); err != nil {
		t.Fatal(err)
	}
}

func TestEntryFences(t *testing.T) {
	pb := ir.NewProgram("p")
	a := pb.Global("a", 1)
	fb := pb.Func("f", 0)
	v := fb.Load(a)
	_ = v
	fb.RetVoid()
	g := pb.Func("g", 0)
	g.RetVoid()
	p, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	set, _, esc := pipeline(t, p)
	plan := Minimize(set, Options{
		EntryFence: func(fn *ir.Fn) bool { return len(esc.EscapingReads(fn)) > 0 },
	})
	if len(plan.EntryFns) != 1 || plan.EntryFns[0].Name != "f" {
		t.Fatalf("entry fences on %v, want [f]", plan.EntryFns)
	}
	inst, _ := plan.Apply()
	first := inst.Fn("f").Entry().Instrs[0]
	if first.Kind != ir.Fence || ir.FenceKind(first.Imm) != ir.FenceFull || !first.Synthetic {
		t.Fatalf("entry fence not inserted first: %s", first)
	}
	if inst.Fn("g").Entry().Instrs[0].Kind == ir.Fence {
		t.Fatal("entry fence on function with no escaping reads")
	}
	if plan.FullFences() != 1 {
		t.Fatalf("FullFences = %d, want 1 (the entry fence)", plan.FullFences())
	}
}

func TestApplyLeavesOriginalUntouched(t *testing.T) {
	pb := ir.NewProgram("p")
	a := pb.Global("a", 1)
	fb := pb.Func("f", 0)
	fb.Store(a, fb.Const(1))
	v := fb.Load(a)
	_ = v
	fb.RetVoid()
	p, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	before := p.NumInstrs()
	set, _, _ := pipeline(t, p)
	plan := Minimize(set, Options{})
	inst, _ := plan.Apply()
	if p.NumInstrs() != before {
		t.Fatal("Apply mutated the analyzed program")
	}
	if inst.NumInstrs() <= before {
		t.Fatal("instrumented clone has no extra instructions")
	}
	full, _ := inst.CountFences(true)
	if full != plan.FullFences() {
		t.Fatalf("clone has %d synthetic full fences, plan says %d", full, plan.FullFences())
	}
}

func TestPrunedPlanNeverLargerAndStillVerifies(t *testing.T) {
	// End-to-end: MP with acquire detection. The pruned plan must place no
	// more fences than the unpruned one, and the pruned instrumentation
	// must still cover every surviving ordering.
	pb := ir.NewProgram("mp")
	data := pb.Global("data", 1)
	flag := pb.Global("flag", 1)
	sink := pb.Global("sink", 1)
	prod := pb.Func("producer", 0)
	one := prod.Const(1)
	prod.Store(data, one)
	prod.Store(flag, one)
	prod.RetVoid()
	cons := pb.Func("consumer", 0)
	one2 := cons.Const(1)
	cons.SpinWhileNe(flag, ir.NoReg, one2)
	v := cons.Load(data)
	cons.Store(sink, v)
	cons.RetVoid()
	main := pb.Func("main", 0)
	t1 := main.Spawn("producer")
	t2 := main.Spawn("consumer")
	main.Join(t1)
	main.Join(t2)
	main.RetVoid()
	pb.SetMain("main")
	p, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	al := alias.Analyze(p)
	esc := escape.Analyze(p, al)
	full := orders.Generate(p, esc)
	acq := acquire.Detect(p, al, esc, acquire.Control)
	pruned := full.Prune(acq)

	planFull := Minimize(full, Options{})
	planPruned := Minimize(pruned, Options{})
	if planPruned.FullFences() > planFull.FullFences() {
		t.Fatalf("pruned plan has more full fences (%d) than unpruned (%d)",
			planPruned.FullFences(), planFull.FullFences())
	}
	inst, imap := planPruned.Apply()
	if err := Verify(pruned, Options{}, inst, imap); err != nil {
		t.Fatal(err)
	}
	instF, imapF := planFull.Apply()
	if err := Verify(full, Options{}, instF, imapF); err != nil {
		t.Fatal(err)
	}
}

// oracleUnfencedPathExists is the instruction-level search Verify ran
// before the block-level one: a DFS over (block, index) states with a
// visited map. It stays as the differential oracle for pathSearch.
func oracleUnfencedPathExists(u, v *ir.Instr, needFull bool) bool {
	type state struct {
		b   *ir.Block
		idx int
	}
	blocks := func(in *ir.Instr) bool {
		if in.Kind != ir.Fence {
			return false
		}
		if needFull {
			return ir.FenceKind(in.Imm) == ir.FenceFull
		}
		return true
	}
	start := state{u.Block(), u.Pos() + 1}
	goal := state{v.Block(), v.Pos()}
	seen := map[state]bool{}
	stack := []state{start}
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[s] {
			continue
		}
		seen[s] = true
		if s == goal {
			return true
		}
		if s.idx >= len(s.b.Instrs) {
			continue
		}
		in := s.b.Instrs[s.idx]
		if blocks(in) {
			continue
		}
		if in.IsTerminator() {
			for _, succ := range s.b.Succs() {
				stack = append(stack, state{succ, 0})
			}
			continue
		}
		stack = append(stack, state{s.b, s.idx + 1})
	}
	return false
}

// PathDiff runs the block-level search, on scratch reused across calls as
// Verify reuses it, next to the oracle. The corpus-wide differential test
// (package fence_test) drives it.
type PathDiff struct{ search pathSearch }

// Both returns the search's answer and the oracle's for u→v.
func (d *PathDiff) Both(u, v *ir.Instr, needFull bool) (got, want bool) {
	return d.search.unfencedPathExists(u, v, needFull), oracleUnfencedPathExists(u, v, needFull)
}

// TestPathSearchMatchesOracleOnRandomPrograms compares the block-level
// search with the oracle for every ordered pair of accesses of random
// programs, unfenced and instrumented with their minimized plan.
func TestPathSearchMatchesOracleOnRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var d PathDiff
	answers := map[bool]int{}
	for trial := 0; trial < 40; trial++ {
		p := randProgram(rng)
		set, _, _ := pipeline(t, p)
		inst, _ := Minimize(set, Options{}).Apply()
		for _, prog := range []*ir.Program{p, inst} {
			for _, f := range prog.Funcs {
				var accs []*ir.Instr
				f.Instrs(func(in *ir.Instr) {
					if in.IsAccess() {
						accs = append(accs, in)
					}
				})
				for _, u := range accs {
					for _, v := range accs {
						for _, full := range []bool{true, false} {
							got, want := d.Both(u, v, full)
							if got != want {
								t.Fatalf("trial %d %s: [%s] -> [%s] needFull=%v: search %v, oracle %v\n%s",
									trial, f.Name, u, v, full, got, want, ir.Format(prog))
							}
							answers[got]++
						}
					}
				}
			}
		}
	}
	if answers[true] == 0 || answers[false] == 0 {
		t.Fatalf("vacuous comparison: answers %v", answers)
	}
}
