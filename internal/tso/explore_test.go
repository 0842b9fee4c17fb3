package tso

import (
	"strings"
	"testing"

	"fenceplace/internal/ir"
)

// sb builds the store-buffering litmus (Dekker core): each thread writes
// its flag then reads the other's into an observation global. The non-SC
// outcome is out0 = out1 = 0.
func sb(fenced bool) *ir.Program {
	pb := ir.NewProgram("sb")
	x := pb.Global("x", 1)
	y := pb.Global("y", 1)
	out0 := pb.Global("out0", 1)
	out1 := pb.Global("out1", 1)

	t0 := pb.Func("t0", 0)
	t0.Store(x, t0.Const(1))
	if fenced {
		t0.Fence(ir.FenceFull)
	}
	t0.Store(out0, t0.Load(y))
	t0.RetVoid()

	t1 := pb.Func("t1", 0)
	t1.Store(y, t1.Const(1))
	if fenced {
		t1.Fence(ir.FenceFull)
	}
	t1.Store(out1, t1.Load(x))
	t1.RetVoid()
	return pb.MustBuild()
}

func TestSBReachableOnlyUnderUnfencedTSO(t *testing.T) {
	cases := []struct {
		name   string
		prog   *ir.Program
		mode   Mode
		wantSB bool // is the out0=0,out1=0 outcome reachable?
	}{
		{"TSO unfenced", sb(false), TSO, true},
		{"TSO fenced", sb(true), TSO, false},
		{"SC unfenced", sb(false), SC, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Explore(tc.prog, []string{"t0", "t1"}, ExploreConfig{Mode: tc.mode})
			if err != nil {
				t.Fatal(err)
			}
			if res.Truncated {
				t.Fatal("exploration truncated")
			}
			got := res.Has(map[string]int64{"out0": 0, "out1": 0}, tc.prog)
			if got != tc.wantSB {
				t.Fatalf("SB outcome reachable = %v, want %v (outcomes: %v)", got, tc.wantSB, res.Keys())
			}
			// Sanity: at least one SC outcome is always reachable.
			if !res.Has(map[string]int64{"out0": 1}, tc.prog) && !res.Has(map[string]int64{"out1": 1}, tc.prog) {
				t.Fatal("no SC outcome reachable at all")
			}
		})
	}
}

// TestStateSetHasRejectsUnknownGlobals checks that a name that is no
// global never matches, rather than standing for the first global: x, the
// first global of SB, is 1 in every final state.
func TestStateSetHasRejectsUnknownGlobals(t *testing.T) {
	p := sb(false)
	res, err := Explore(p, []string{"t0", "t1"}, ExploreConfig{Mode: TSO})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Has(map[string]int64{"x": 1}, p) {
		t.Fatalf("x=1 not reached (outcomes: %v)", res.Keys())
	}
	if res.Has(map[string]int64{"nosuch": 1}, p) {
		t.Fatal("Has matched a global the program does not have")
	}
}

// mpLitmus is MP without a spin loop: t1 reads flag then data; the non-SC
// outcome is flag=1 observed but data=0. TSO forbids it (stores retire in
// order, loads execute in order), matching the paper's claim that only w→r
// needs full fences on x86.
func mpLitmus() *ir.Program {
	pb := ir.NewProgram("mp-litmus")
	data := pb.Global("data", 1)
	flag := pb.Global("flag", 1)
	outF := pb.Global("outF", 1)
	outD := pb.Global("outD", 1)

	t0 := pb.Func("t0", 0)
	t0.Store(data, t0.Const(1))
	t0.Store(flag, t0.Const(1))
	t0.RetVoid()

	t1 := pb.Func("t1", 0)
	t1.Store(outF, t1.Load(flag))
	t1.Store(outD, t1.Load(data))
	t1.RetVoid()
	return pb.MustBuild()
}

func TestMPReorderForbiddenUnderTSO(t *testing.T) {
	p := mpLitmus()
	for _, mode := range []Mode{TSO, SC} {
		res, err := Explore(p, []string{"t0", "t1"}, ExploreConfig{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		if res.Has(map[string]int64{"outF": 1, "outD": 0}, p) {
			t.Fatalf("%s allowed the MP anomaly (flag seen, data stale)", mode)
		}
		if !res.Has(map[string]int64{"outF": 1, "outD": 1}, p) {
			t.Fatalf("%s: expected outcome flag=1,data=1 missing", mode)
		}
		if !res.Has(map[string]int64{"outF": 0, "outD": 0}, p) {
			t.Fatalf("%s: expected outcome flag=0,data=0 missing", mode)
		}
	}
}

func TestExploreTSOStrictlyWeakerThanSC(t *testing.T) {
	// Every SC-reachable final state is TSO-reachable (drain eagerly ==
	// SC), so outcomes(SC) ⊆ outcomes(TSO).
	p := sb(false)
	scRes, err := Explore(p, []string{"t0", "t1"}, ExploreConfig{Mode: SC})
	if err != nil {
		t.Fatal(err)
	}
	tsoRes, err := Explore(p, []string{"t0", "t1"}, ExploreConfig{Mode: TSO})
	if err != nil {
		t.Fatal(err)
	}
	for k := range scRes.Outcomes {
		if _, ok := tsoRes.Outcomes[k]; !ok {
			t.Errorf("SC outcome %s not reachable under TSO", k)
		}
	}
	if len(tsoRes.Outcomes) <= len(scRes.Outcomes) {
		t.Error("TSO should reach strictly more outcomes than SC for unfenced SB")
	}
}

func TestExploreCASIsFullBarrier(t *testing.T) {
	// SB with the first store replaced by CAS: the locked RMW drains the
	// buffer, so the SB outcome disappears without explicit fences.
	pb := ir.NewProgram("sb-cas")
	x := pb.Global("x", 1)
	y := pb.Global("y", 1)
	out0 := pb.Global("out0", 1)
	out1 := pb.Global("out1", 1)
	t0 := pb.Func("t0", 0)
	px := t0.AddrOf(x)
	t0.CAS(px, t0.Const(0), t0.Const(1))
	t0.Store(out0, t0.Load(y))
	t0.RetVoid()
	t1 := pb.Func("t1", 0)
	py := t1.AddrOf(y)
	t1.CAS(py, t1.Const(0), t1.Const(1))
	t1.Store(out1, t1.Load(x))
	t1.RetVoid()
	p := pb.MustBuild()
	res, err := Explore(p, []string{"t0", "t1"}, ExploreConfig{Mode: TSO})
	if err != nil {
		t.Fatal(err)
	}
	if res.Has(map[string]int64{"out0": 0, "out1": 0}, p) {
		t.Fatal("CAS did not act as a full barrier")
	}
}

func TestExploreRejectsNonFlatThreads(t *testing.T) {
	pb := ir.NewProgram("bad")
	h := pb.Func("helper", 0)
	h.RetVoid()
	f := pb.Func("f", 0)
	f.CallVoid("helper")
	f.RetVoid()
	p := pb.MustBuild()
	_, err := Explore(p, []string{"f"}, ExploreConfig{})
	if err == nil || !strings.Contains(err.Error(), "flat") {
		t.Fatalf("err = %v, want flatness complaint", err)
	}
	if _, err := Explore(p, []string{"missing"}, ExploreConfig{}); err == nil {
		t.Fatal("missing function accepted")
	}
}

func TestExploreTruncation(t *testing.T) {
	p := sb(false)
	res, err := Explore(p, []string{"t0", "t1"}, ExploreConfig{Mode: TSO, MaxStates: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("tiny MaxStates did not truncate")
	}
}
