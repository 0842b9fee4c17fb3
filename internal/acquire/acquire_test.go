package acquire

import (
	"testing"

	"fenceplace/internal/alias"
	"fenceplace/internal/escape"
	"fenceplace/internal/ir"
)

func prep(t *testing.T, p *ir.Program) (*alias.Analysis, *escape.Result) {
	t.Helper()
	al := alias.Analyze(p)
	return al, escape.Analyze(p, al)
}

func loadsOf(f *ir.Fn, g string) []*ir.Instr {
	var out []*ir.Instr
	f.Instrs(func(in *ir.Instr) {
		if in.Kind == ir.Load && in.G.Name == g {
			out = append(out, in)
		}
	})
	return out
}

// buildMP: the paper's Figure 4. The consumer's flag read feeds a branch
// (control acquire); its data read feeds nothing.
func buildMP(t *testing.T) *ir.Program {
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
	return p
}

func TestControlDetectsFlagSpin(t *testing.T) {
	p := buildMP(t)
	al, esc := prep(t, p)
	res := Detect(p, al, esc, Control)
	cons := p.Fn("consumer")

	flagLoads := loadsOf(cons, "flag")
	if len(flagLoads) != 1 {
		t.Fatalf("want 1 flag load, got %d", len(flagLoads))
	}
	if !res.IsSync(flagLoads[0]) {
		t.Error("flag spin load must be a control acquire")
	}
	dataLoads := loadsOf(cons, "data")
	if len(dataLoads) != 1 {
		t.Fatalf("want 1 data load, got %d", len(dataLoads))
	}
	if res.IsSync(dataLoads[0]) {
		t.Error("data load must not be flagged: it feeds no branch or address")
	}
	if !res.FnHasSync(cons) {
		t.Error("consumer contains a sync read")
	}
	if res.FnHasSync(p.Fn("producer")) {
		t.Error("producer contains no reads at all")
	}
}

// buildMPPointers: the paper's Figure 5 — MP where the flag variable holds
// a pointer that the consumer dereferences. The y read matches only the
// address signature.
func buildMPPointers(t *testing.T) *ir.Program {
	pb := ir.NewProgram("mp-ptr")
	x := pb.Global("x", 1)
	z := pb.Global("z", 1)
	y := pb.Global("y", 1)
	sink := pb.Global("sink", 1)

	prod := pb.Func("producer", 0)
	prod.Store(x, prod.Const(41))
	prod.Store(y, prod.AddrOf(x)) // release: publish &x
	prod.RetVoid()

	cons := pb.Func("consumer", 0)
	r := cons.Load(y)    // acquire by address signature only
	v := cons.LoadPtr(r) // data access whose address derives from r
	cons.Store(sink, v)
	cons.RetVoid()

	main := pb.Func("main", 0)
	// Initialize y = &z so the consumer always has a valid pointer.
	main.Store(y, main.AddrOf(z))
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
	return p
}

func TestAddressSignature(t *testing.T) {
	p := buildMPPointers(t)
	al, esc := prep(t, p)
	cons := p.Fn("consumer")
	yLoad := loadsOf(cons, "y")[0]

	ctl := Detect(p, al, esc, Control)
	if ctl.IsSync(yLoad) {
		t.Error("y load must not match the control signature (no branch)")
	}
	ac := Detect(p, al, esc, AddressControl)
	if !ac.IsSync(yLoad) {
		t.Error("y load must match the address signature")
	}
	sig := SignaturesOf(ctl, Detect(p, al, esc, AddressOnly))
	if !sig.HasAddress() {
		t.Error("classification must report an address acquire")
	}
	if !sig.HasPureAddress() {
		t.Error("y load is a pure address acquire (paper Figure 5)")
	}
	if sig.Control[yLoad] {
		t.Error("y load misclassified as control")
	}
}

func TestSliceThroughLocalStoreLoad(t *testing.T) {
	// An escaping read whose value is stored to a local slot, reloaded, and
	// only then branched on must still be detected (potential_writers chain).
	pb := ir.NewProgram("p")
	flag := pb.Global("flag", 1)
	tmp := pb.Global("tmp", 1) // stand-in for spilled local
	b := pb.Func("f", 0)
	v := b.Load(flag)
	b.Store(tmp, v)
	w := b.Load(tmp)
	b.If(b.Eq(w, b.Const(1)), func() {})
	b.RetVoid()
	p, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	al, esc := prep(t, p)
	res := Detect(p, al, esc, Control)
	f := p.Fn("f")
	fl := loadsOf(f, "flag")[0]
	if !res.IsSync(fl) {
		t.Error("flag read reaching a branch through memory must be flagged")
	}
}

func TestCASResultFeedsBranch(t *testing.T) {
	pb := ir.NewProgram("p")
	lock := pb.Global("lock", 1)
	b := pb.Func("f", 0)
	pl := b.AddrOf(lock)
	zero := b.Const(0)
	one := b.Const(1)
	b.While(func() ir.Reg {
		got := b.CAS(pl, zero, one)
		return b.Eq(got, zero)
	}, func() {})
	b.RetVoid()
	p, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	al, esc := prep(t, p)
	res := Detect(p, al, esc, Control)
	var cas *ir.Instr
	p.Fn("f").Instrs(func(in *ir.Instr) {
		if in.Kind == ir.CAS {
			cas = in
		}
	})
	if cas == nil {
		t.Fatal("no CAS found")
	}
	if !res.IsSync(cas) {
		t.Error("CAS whose result feeds the spin branch must be a sync read")
	}
}

func TestInterproceduralSplitNotDetected(t *testing.T) {
	// The paper's documented simplification (§4): a read in one function
	// whose branch lives in another function is not detected. This test
	// pins that (intentional) behavior.
	pb := ir.NewProgram("p")
	flag := pb.Global("flag", 1)
	chk := pb.Func("check", 1)
	chk.If(chk.Eq(chk.Param(0), chk.Const(1)), func() {})
	chk.RetVoid()
	f := pb.Func("f", 0)
	v := f.Load(flag)
	f.CallVoid("check", v)
	f.RetVoid()
	p, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	al, esc := prep(t, p)
	res := Detect(p, al, esc, Control)
	fl := loadsOf(p.Fn("f"), "flag")[0]
	if res.IsSync(fl) {
		t.Error("intraprocedural algorithm unexpectedly crossed the call (update this test if interprocedural slicing is added)")
	}
}

func TestMonotoneControlSubsetOfAddressControl(t *testing.T) {
	for _, build := range []func(*testing.T) *ir.Program{buildMP, buildMPPointers} {
		p := build(t)
		al, esc := prep(t, p)
		ctl := Detect(p, al, esc, Control)
		ac := Detect(p, al, esc, AddressControl)
		for _, f := range p.Funcs {
			for _, in := range ctl.SyncReads(f) {
				if !ac.IsSync(in) {
					t.Errorf("%s: %s flagged by Control but not AddressControl", p.Name, in)
				}
			}
		}
		if ctl.Count() > ac.Count() {
			t.Errorf("%s: Control count %d > AddressControl count %d", p.Name, ctl.Count(), ac.Count())
		}
	}
}

func TestOnlyEscapingReadsFlagged(t *testing.T) {
	// A branch on a non-escaping (local alloca) load must not produce sync
	// reads; acquires are a subset of escaping reads by construction.
	pb := ir.NewProgram("p")
	b := pb.Func("f", 0)
	buf := b.Alloca(1)
	b.StorePtr(buf, b.Const(1))
	v := b.LoadPtr(buf)
	b.If(b.Eq(v, b.Const(1)), func() {})
	b.RetVoid()
	p, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	al, esc := prep(t, p)
	res := Detect(p, al, esc, Control)
	if res.Count() != 0 {
		t.Fatalf("local-only program produced %d sync reads", res.Count())
	}
}

func TestIndexedLoadIsAddressRoot(t *testing.T) {
	// idx = load shared; v = load arr[idx]: under Address+Control the idx
	// read matches the address signature even with no branch anywhere.
	pb := ir.NewProgram("p")
	idxG := pb.Global("idx", 1)
	arr := pb.Global("arr", 8)
	sink := pb.Global("sink", 1)
	b := pb.Func("f", 0)
	i := b.Load(idxG)
	v := b.LoadIdx(arr, i)
	b.Store(sink, v)
	b.RetVoid()
	p, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	al, esc := prep(t, p)
	ctl := Detect(p, al, esc, Control)
	if ctl.Count() != 0 {
		t.Fatalf("Control flagged %d reads in a branch-free program", ctl.Count())
	}
	ac := Detect(p, al, esc, AddressControl)
	idxLoad := loadsOf(p.Fn("f"), "idx")[0]
	if !ac.IsSync(idxLoad) {
		t.Error("index-feeding read must match the address signature")
	}
	arrLoad := loadsOf(p.Fn("f"), "arr")[0]
	if ac.IsSync(arrLoad) {
		t.Error("the indexed data load itself feeds no address; must not be flagged")
	}
}

func TestVariantString(t *testing.T) {
	if Control.String() != "Control" || AddressControl.String() != "Address+Control" || AddressOnly.String() != "AddressOnly" {
		t.Error("variant names changed; experiment tables depend on them")
	}
}
