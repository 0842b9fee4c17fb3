package cfg

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"fenceplace/internal/ir"
)

// diamond builds:  entry -> (then | else) -> join -> ret
func diamond(t *testing.T) (*ir.Program, *ir.Fn) {
	t.Helper()
	pb := ir.NewProgram("d")
	g := pb.Global("g", 1)
	b := pb.Func("f", 1)
	b.IfElse(b.Gt(b.Param(0), b.Const(0)), func() {
		b.Store(g, b.Param(0))
	}, func() {
		b.Store(g, b.Const(0))
	})
	b.Ret(b.Load(g))
	p, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p, p.Fn("f")
}

// loop builds: entry -> head -> (body -> head | exit)
func loop(t *testing.T) (*ir.Program, *ir.Fn) {
	t.Helper()
	pb := ir.NewProgram("l")
	g := pb.Global("g", 16)
	b := pb.Func("f", 0)
	b.ForConst(0, 10, func(i ir.Reg) {
		b.StoreIdx(g, i, i)
	})
	b.RetVoid()
	p, err := pb.Build()
	if err != nil {
		t.Fatal(err)
	}
	return p, p.Fn("f")
}

func TestDiamondReachability(t *testing.T) {
	_, f := diamond(t)
	g := New(f)
	entry := f.Entry()
	var thenB, elseB, join *ir.Block
	succ := entry.Succs()
	if len(succ) != 2 {
		t.Fatalf("entry succs = %d, want 2", len(succ))
	}
	thenB, elseB = succ[0], succ[1]
	js := thenB.Succs()
	if len(js) != 1 {
		t.Fatalf("then succs = %d, want 1", len(js))
	}
	join = js[0]

	if !g.BlockReaches(entry, join) {
		t.Error("entry should reach join")
	}
	if g.BlockReaches(thenB, elseB) || g.BlockReaches(elseB, thenB) {
		t.Error("branch arms must not reach each other")
	}
	if g.BlockReaches(join, entry) {
		t.Error("join must not reach entry (no back edges)")
	}
	if g.InLoop(entry) || g.InLoop(join) {
		t.Error("acyclic function reported a loop")
	}
	for _, b := range f.Blocks {
		if !g.Reachable(b) {
			t.Errorf("block %s unreachable", b.Name)
		}
	}
}

func TestDiamondPreds(t *testing.T) {
	_, f := diamond(t)
	g := New(f)
	entry := f.Entry()
	if n := len(g.Preds(entry)); n != 0 {
		t.Fatalf("entry preds = %d, want 0", n)
	}
	join := entry.Succs()[0].Succs()[0]
	if n := len(g.Preds(join)); n != 2 {
		t.Fatalf("join preds = %d, want 2", n)
	}
}

func TestLoopReachability(t *testing.T) {
	_, f := loop(t)
	g := New(f)
	var head, body *ir.Block
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			if s == b {
				t.Fatalf("unexpected self-loop at %s", b.Name)
			}
		}
	}
	// Find the loop head: a block that reaches itself with two successors.
	for _, b := range f.Blocks {
		if g.InLoop(b) && len(b.Succs()) == 2 {
			head = b
			body = b.Succs()[0]
		}
	}
	if head == nil {
		t.Fatal("no loop head found")
	}
	if !g.BlockReaches(head, head) {
		t.Error("loop head should reach itself")
	}
	if !g.BlockReaches(body, body) {
		t.Error("loop body should reach itself via the back edge")
	}
	if !g.InLoop(body) {
		t.Error("body not reported in loop")
	}
}

func TestCanFollow(t *testing.T) {
	_, f := loop(t)
	g := New(f)
	// Collect the store in the loop body.
	var store *ir.Instr
	f.Instrs(func(in *ir.Instr) {
		if in.Kind == ir.Store {
			store = in
		}
	})
	if store == nil {
		t.Fatal("no store found")
	}
	// A loop access can follow itself.
	if !g.CanFollow(store, store) {
		t.Error("loop store should be able to follow itself")
	}
	// Within a block, earlier instr can be followed by later one.
	blk := store.Block()
	first := blk.Instrs[0]
	last := blk.Instrs[len(blk.Instrs)-1]
	if !g.CanFollow(first, last) {
		t.Error("intra-block order not detected")
	}
	// Later cannot be followed by earlier in the same block... unless the
	// block is in a loop, which here it is.
	if !g.CanFollow(last, first) {
		t.Error("back-edge path not detected for same-block reversed pair")
	}
}

func TestCanFollowAcyclic(t *testing.T) {
	_, f := diamond(t)
	g := New(f)
	entry := f.Entry()
	join := entry.Succs()[0].Succs()[0]
	eFirst := entry.Instrs[0]
	jLast := join.Instrs[len(join.Instrs)-1]
	if !g.CanFollow(eFirst, jLast) {
		t.Error("entry instr should be followable by join instr")
	}
	if g.CanFollow(jLast, eFirst) {
		t.Error("reverse order reported followable in acyclic CFG")
	}
	// Same-block reversed pair in acyclic block: not followable.
	if g.CanFollow(jLast, join.Instrs[0]) {
		t.Error("same-block reversed pair followable without a loop")
	}
}

func TestRPO(t *testing.T) {
	_, f := diamond(t)
	g := New(f)
	rpo := g.RPO()
	if len(rpo) != len(f.Blocks) {
		t.Fatalf("rpo has %d blocks, want %d", len(rpo), len(f.Blocks))
	}
	if rpo[0] != f.Entry() {
		t.Fatal("rpo does not start at entry")
	}
	pos := map[*ir.Block]int{}
	for i, b := range rpo {
		pos[b] = i
	}
	// In an acyclic graph, every edge goes forward in RPO.
	for _, b := range f.Blocks {
		for _, s := range b.Succs() {
			if pos[s] <= pos[b] {
				t.Errorf("edge %s->%s goes backward in RPO of acyclic CFG", b.Name, s.Name)
			}
		}
	}
}

// liveSrc exercises every shape the liveness analysis must get right: a
// loop whose counter and bound cross the back edge, a Br join where a
// register is defined on one arm only, Call and Spawn arguments, a
// Call's destination, a Join operand and an unused parameter.
const liveSrc = `
program live
global g 1
main main

func main params=0 regs=4 {
entry:
  r0 = const 5
  r1 = spawn loop(r0)
  r2 = call inc(r0, r0)
  join r1
  store g, r2
  ret
}

func inc params=2 regs=3 {
entry:
  r2 = const 1
  r2 = add r0, r2
  ret r2
}

func loop params=1 regs=3 {
entry:
  r1 = const 0
  jmp head
head:
  r2 = lt r1, r0
  br r2, body, done
body:
  store g, r1
  r2 = const 1
  r1 = add r1, r2
  jmp head
done:
  ret
}

func pick params=2 regs=3 {
entry:
  r2 = const 9
  br r0, a, b
a:
  r1 = const 1
  jmp join
b:
  jmp join
join:
  ret r1
}
`

// TestDeadRegs pins the dead set on entry to every instruction of liveSrc.
func TestDeadRegs(t *testing.T) {
	p, err := ir.Parse(liveSrc)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]string{
		"main": {
			"r0 r1 r2 r3", // r0 = const 5
			"r1 r2 r3",    // spawn reads r0
			"r2 r3",       // call reads r0; r1 is joined later; r2 is its destination
			"r0 r3",       // join reads r1; r2 is stored after it
			"r0 r1 r3",    // store reads r2
			"r0 r1 r2 r3", // ret
		},
		"inc": {
			"r1 r2", // the second parameter is never read
			"r1",    // add reads r0 and r2
			"r0 r1", // ret reads r2
		},
		"loop": {
			"r1 r2", // entry: the bound r0 is live throughout the loop
			"r2",
			"r2", // head: r1 and r0 cross the back edge
			"",   // br reads r2
			"r2", // body
			"r2",
			"",
			"r2",
			"r0 r1 r2", // done
		},
		"pick": {
			"r2", // r1 is live on entry: the b arm reads it at the join
			"r2",
			"r0 r1 r2", // a redefines r1
			"r0 r2",
			"r0 r2", // b passes r1 through
			"r0 r2", // join reads r1
		},
	}
	for _, f := range p.Funcs {
		dead := DeadRegs(f)
		var got []string
		for _, b := range f.Blocks {
			for i := range b.Instrs {
				var names []string
				for _, r := range dead[b.ID()][i] {
					names = append(names, fmt.Sprintf("r%d", r))
				}
				got = append(got, strings.Join(names, " "))
			}
		}
		if !slices.Equal(got, want[f.Name]) {
			t.Errorf("%s: dead sets\n got %q\nwant %q", f.Name, got, want[f.Name])
		}
	}
}
