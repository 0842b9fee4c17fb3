package annotate

import (
	"strings"
	"testing"

	"fenceplace/internal/ir"
	"fenceplace/internal/passes"
	"fenceplace/internal/progs"
)

func buildMP(t *testing.T) *ir.Program {
	t.Helper()
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
	cons.SpinWhileNe(flag, ir.NoReg, cons.Const(1))
	cons.Store(sink, cons.Load(data))
	cons.RetVoid()
	main := pb.Func("main", 0)
	t1 := main.Spawn("producer")
	t2 := main.Spawn("consumer")
	main.Join(t1)
	main.Join(t2)
	main.RetVoid()
	pb.SetMain("main")
	return pb.MustBuild()
}

func TestMPAnnotations(t *testing.T) {
	res := Generate(passes.NewSession(buildMP(t)))
	if len(res.Acquires) != 1 {
		t.Fatalf("got %d acquires, want 1 (the flag spin): %v", len(res.Acquires), res.Acquires)
	}
	a := res.Acquires[0]
	if a.Signature != "control" {
		t.Errorf("flag spin classified %q, want control", a.Signature)
	}
	if a.Fn.Name != "consumer" {
		t.Errorf("acquire attributed to %s, want consumer", a.Fn.Name)
	}
	// Releases: data, flag (producer) and sink (consumer).
	if len(res.Releases) != 3 {
		t.Fatalf("got %d releases, want 3", len(res.Releases))
	}
	if got := len(res.PureAddressAcquires()); got != 0 {
		t.Errorf("MP has %d pure-address acquires, want 0", got)
	}
	rep := res.Report()
	for _, want := range []string{"1 acquires", "3 releases", "func consumer:", "(control)"} {
		if !strings.Contains(rep, want) {
			t.Errorf("report missing %q:\n%s", want, rep)
		}
	}
}

func TestPureAddressSurfaced(t *testing.T) {
	// The paper's Figure 5 (MP with pointers) is the canonical
	// pure-address acquire; the annotator must classify it as such.
	pb := ir.NewProgram("mp-ptr")
	x := pb.Global("x", 1)
	y := pb.Global("y", 1, 0)
	z := pb.Global("z", 1)
	sink := pb.Global("sink", 1)
	prod := pb.Func("producer", 0)
	prod.Store(x, prod.Const(41))
	prod.Store(y, prod.AddrOf(x))
	prod.RetVoid()
	cons := pb.Func("consumer", 0)
	r := cons.Load(y)
	cons.Store(sink, cons.LoadPtr(r))
	cons.RetVoid()
	main := pb.Func("main", 0)
	main.Store(y, main.AddrOf(z))
	t1 := main.Spawn("producer")
	t2 := main.Spawn("consumer")
	main.Join(t1)
	main.Join(t2)
	main.RetVoid()
	pb.SetMain("main")
	res := Generate(passes.NewSession(pb.MustBuild()))
	pure := res.PureAddressAcquires()
	if len(pure) != 1 {
		t.Fatalf("got %d pure-address acquires, want 1 (the y load): %v", len(pure), res.Acquires)
	}
}

func TestCorpusKernelsHaveNoPureAddressAnnotations(t *testing.T) {
	// Table II through the annotator's lens.
	for _, m := range progs.ByKind(progs.SyncKernel) {
		res := Generate(passes.NewSession(m.Default()))
		if len(res.Acquires) == 0 {
			t.Errorf("%s: no acquires annotated", m.Name)
		}
		if pure := res.PureAddressAcquires(); len(pure) != 0 {
			t.Errorf("%s: unexpected pure-address acquires: %v", m.Name, pure)
		}
	}
}

func TestAnnotationCountsMatchDescribe(t *testing.T) {
	res := Generate(passes.NewSession(progs.ByName("msqueue").Default()))
	for _, a := range append(append([]Annotation{}, res.Acquires...), res.Releases...) {
		d := a.Describe()
		if !strings.Contains(d, a.Fn.Name) || len(d) < 10 {
			t.Errorf("weak description: %q", d)
		}
	}
	if res.Acquires[0].Kind.String() != "acquire" || Release.String() != "release" {
		t.Error("kind names drifted")
	}
}
