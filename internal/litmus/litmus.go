// Package litmus defines the classic memory-model litmus tests in the
// module's IR and checks them by exhaustive state-space exploration. They
// pin the TSO simulator to the architecture the paper targets: store
// buffering (SB) is the only relaxation — message passing (MP), load
// buffering (LB) and read coherence (CoRR) behave as under SC, which is
// exactly why the paper's §4.4 only spends full fences on w→r orderings.
package litmus

import (
	"context"
	"fmt"

	"fenceplace/internal/ir"
	"fenceplace/internal/mc"
	"fenceplace/internal/tso"
)

// Test is one litmus test: flat thread functions plus one distinguished
// final state and its verdict per memory model.
type Test struct {
	Name    string
	Desc    string
	Prog    *ir.Program
	Threads []string
	// Outcome is the distinguished (usually non-SC) final state.
	Outcome map[string]int64
	// AllowedTSO / AllowedSC state whether Outcome is reachable.
	AllowedTSO bool
	AllowedSC  bool
}

// Observed explores the test under the given model with the parallel model
// checker and reports whether the distinguished outcome is reachable. A
// truncated exploration is an explicit error (wrapping mc.ErrTruncated):
// an incomplete state space must never silently pass for a verdict.
func (t *Test) Observed(mode tso.Mode) (bool, error) {
	return t.observedBudget(mode, 0)
}

// Explore runs the model checker over the test's threads under the given
// model and returns the reachable final-state set.
func (t *Test) Explore(mode tso.Mode) (*mc.StateSet, error) {
	return t.exploreBudget(mode, 0)
}

func (t *Test) exploreBudget(mode tso.Mode, maxStates int64) (*mc.StateSet, error) {
	return mc.ExploreCompleteCtx(context.Background(), t.Prog, t.Threads, mc.Config{Mode: mode, MaxStates: maxStates})
}

func (t *Test) observedBudget(mode tso.Mode, maxStates int64) (bool, error) {
	res, err := t.exploreBudget(mode, maxStates)
	if err != nil {
		return false, err
	}
	return res.Has(t.Outcome, t.Prog), nil
}

// Check runs the test under both models and verifies the verdicts.
func (t *Test) Check() error {
	for _, m := range []tso.Mode{tso.TSO, tso.SC} {
		got, err := t.Observed(m)
		if err != nil {
			return err
		}
		want := t.AllowedSC
		if m == tso.TSO {
			want = t.AllowedTSO
		}
		if got != want {
			return fmt.Errorf("litmus %s under %s: outcome observed=%v, want %v", t.Name, m, got, want)
		}
	}
	return nil
}

// All returns the litmus suite.
func All() []*Test {
	return []*Test{
		sb(false), sb(true), mp(), lb(), corr(), sbRMW(),
	}
}

// sb is store buffering: w x; r y || w y; r x. The both-read-zero outcome
// is TSO's signature relaxation; a full fence in each thread forbids it.
func sb(fenced bool) *Test {
	pb := ir.NewProgram("sb")
	x := pb.Global("x", 1)
	y := pb.Global("y", 1)
	o0 := pb.Global("o0", 1)
	o1 := pb.Global("o1", 1)
	t0 := pb.Func("t0", 0)
	t0.Store(x, t0.Const(1))
	if fenced {
		t0.Fence(ir.FenceFull)
	}
	t0.Store(o0, t0.Load(y))
	t0.RetVoid()
	t1 := pb.Func("t1", 0)
	t1.Store(y, t1.Const(1))
	if fenced {
		t1.Fence(ir.FenceFull)
	}
	t1.Store(o1, t1.Load(x))
	t1.RetVoid()
	name, desc := "SB", "store buffering: both loads read 0"
	if fenced {
		name, desc = "SB+fences", "store buffering with full fences"
	}
	return &Test{
		Name: name, Desc: desc, Prog: pb.MustBuild(),
		Threads:    []string{"t0", "t1"},
		Outcome:    map[string]int64{"o0": 0, "o1": 0},
		AllowedTSO: !fenced, AllowedSC: false,
	}
}

// mp is message passing without fences: observing the flag but missing the
// data would require w→w or r→r reordering, which TSO forbids.
func mp() *Test {
	pb := ir.NewProgram("mp")
	data := pb.Global("data", 1)
	flag := pb.Global("flag", 1)
	of := pb.Global("of", 1)
	od := pb.Global("od", 1)
	t0 := pb.Func("t0", 0)
	t0.Store(data, t0.Const(1))
	t0.Store(flag, t0.Const(1))
	t0.RetVoid()
	t1 := pb.Func("t1", 0)
	t1.Store(of, t1.Load(flag))
	t1.Store(od, t1.Load(data))
	t1.RetVoid()
	return &Test{
		Name: "MP", Desc: "message passing: flag seen but data stale",
		Prog: pb.MustBuild(), Threads: []string{"t0", "t1"},
		Outcome:    map[string]int64{"of": 1, "od": 0},
		AllowedTSO: false, AllowedSC: false,
	}
}

// lb is load buffering: r x; w y || r y; w x with both loads observing 1.
// Needs load→store reordering; impossible on TSO and SC.
func lb() *Test {
	pb := ir.NewProgram("lb")
	x := pb.Global("x", 1)
	y := pb.Global("y", 1)
	o0 := pb.Global("o0", 1)
	o1 := pb.Global("o1", 1)
	t0 := pb.Func("t0", 0)
	v := t0.Load(x)
	t0.Store(o0, v)
	t0.Store(y, t0.Const(1))
	t0.RetVoid()
	t1 := pb.Func("t1", 0)
	w := t1.Load(y)
	t1.Store(o1, w)
	t1.Store(x, t1.Const(1))
	t1.RetVoid()
	return &Test{
		Name: "LB", Desc: "load buffering: both loads observe 1",
		Prog: pb.MustBuild(), Threads: []string{"t0", "t1"},
		Outcome:    map[string]int64{"o0": 1, "o1": 1},
		AllowedTSO: false, AllowedSC: false,
	}
}

// corr is read coherence: two loads of x in one thread must not observe the
// new value then the old one.
func corr() *Test {
	pb := ir.NewProgram("corr")
	x := pb.Global("x", 1)
	o0 := pb.Global("o0", 1)
	o1 := pb.Global("o1", 1)
	t0 := pb.Func("t0", 0)
	t0.Store(x, t0.Const(1))
	t0.RetVoid()
	t1 := pb.Func("t1", 0)
	t1.Store(o0, t1.Load(x))
	t1.Store(o1, t1.Load(x))
	t1.RetVoid()
	return &Test{
		Name: "CoRR", Desc: "coherent reads: new value then old value",
		Prog: pb.MustBuild(), Threads: []string{"t0", "t1"},
		Outcome:    map[string]int64{"o0": 1, "o1": 0},
		AllowedTSO: false, AllowedSC: false,
	}
}

// sbRMW is SB with the stores replaced by CAS: locked RMWs drain the store
// buffer, so the relaxed outcome disappears without any explicit fence —
// the reason orderings at RMW endpoints need no extra MFENCE.
func sbRMW() *Test {
	pb := ir.NewProgram("sb-rmw")
	x := pb.Global("x", 1)
	y := pb.Global("y", 1)
	o0 := pb.Global("o0", 1)
	o1 := pb.Global("o1", 1)
	t0 := pb.Func("t0", 0)
	t0.CAS(t0.AddrOf(x), t0.Const(0), t0.Const(1))
	t0.Store(o0, t0.Load(y))
	t0.RetVoid()
	t1 := pb.Func("t1", 0)
	t1.CAS(t1.AddrOf(y), t1.Const(0), t1.Const(1))
	t1.Store(o1, t1.Load(x))
	t1.RetVoid()
	return &Test{
		Name: "SB+RMW", Desc: "store buffering with locked RMW stores",
		Prog: pb.MustBuild(), Threads: []string{"t0", "t1"},
		Outcome:    map[string]int64{"o0": 0, "o1": 0},
		AllowedTSO: false, AllowedSC: false,
	}
}
