package mc_test

// A TSO exploration key leaves out the fences that cannot change a TSO
// execution: compiler barriers, and full fences the store-buffer analysis
// reaches only with an empty buffer. These tests delete exactly those
// fences and check what the shared key promises: the same outcome set and
// the same one-worker visit count.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"fenceplace/internal/ir"
	"fenceplace/internal/mc"
	"fenceplace/internal/progs"
	"fenceplace/internal/tso"
)

// checkNoOpStrip explores p and its copy without no-op fences under TSO at
// one worker: both must key alike and agree on the outcome set and the
// visit count. It returns how many fences the copy lacks.
func checkNoOpStrip(t *testing.T, name string, p *ir.Program, threads []string) int {
	t.Helper()
	q, removed := mc.StripNoOpFences(p)
	cfg := mc.Config{Mode: tso.TSO, Workers: 1}
	if kp, kq := mc.ExplorationKey(p, threads, cfg), mc.ExplorationKey(q, threads, cfg); kp != kq {
		t.Errorf("%s: TSO key %s, %s without its %d no-op fences", name, kp, kq, removed)
	}
	ctx := context.Background()
	a, err := mc.ExploreCompleteCtx(ctx, p, threads, cfg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	b, err := mc.ExploreCompleteCtx(ctx, q, threads, cfg)
	if err != nil {
		t.Fatalf("%s without no-op fences: %v", name, err)
	}
	if a.Visited != b.Visited || !reflect.DeepEqual(a.Outcomes, b.Outcomes) {
		t.Errorf("%s: %d TSO outcomes in %d states, %d in %d without its %d no-op fences",
			name, len(a.Outcomes), a.Visited, len(b.Outcomes), b.Visited, removed)
	}
	return removed
}

// TestNoOpFencesChangeNoExploration runs checkNoOpStrip on every
// cert-kernels build the certification table certifies and on seeded
// random programs with fences at random positions.
func TestNoOpFencesChangeNoExploration(t *testing.T) {
	t.Run("kernels", func(t *testing.T) {
		removed := 0
		for _, m := range progs.ByKind(progs.SyncKernel) {
			_, variants := certBuilds(m)
			for i, strategy := range []string{"Manual", "Pensieve", "Address+Control", "Control"} {
				removed += checkNoOpStrip(t, m.Name+"/"+strategy, variants[i], nil)
			}
		}
		if removed == 0 {
			t.Error("no kernel build has a no-op fence: the check compared identical programs")
		}
		t.Logf("%d no-op fences removed", removed)
	})
	t.Run("random", func(t *testing.T) {
		removed, kept := 0, 0
		for name, p := range randomFencePrograms(20261020, 40) {
			removed += checkNoOpStrip(t, name, p, nil)
			full, compiler := p.CountFences(false)
			kept += full + compiler
		}
		kept -= removed
		if removed == 0 || kept == 0 {
			t.Errorf("%d fences removed and %d kept: the programs exercise one side only", removed, kept)
		}
		t.Logf("%d no-op fences removed, %d kept", removed, kept)
	})
}

// randomFencePrograms generates whole programs whose main runs some steps,
// spawns a worker and runs more, joining it or not. A step stores, loads,
// calls a helper that stores and loads, runs CAS or FetchAdd, or loops two
// trips loading one global and storing another. Full fences and compiler
// barriers then go in at random positions of random blocks: at function
// entries, after drains, in loop bodies behind a store of the previous
// trip, after calls.
func randomFencePrograms(seed int64, trials int) map[string]*ir.Program {
	rng := rand.New(rand.NewSource(seed))
	out := make(map[string]*ir.Program, trials)
	for trial := 0; trial < trials; trial++ {
		name := fmt.Sprintf("fences%d", trial)
		pb := ir.NewProgram(name)
		gs := []*ir.Global{pb.Global("x", 1), pb.Global("y", 1), pb.Global("z", 1)}
		pick := func() *ir.Global { return gs[rng.Intn(len(gs))] }
		h := pb.Func("h", 1)
		h.Store(pick(), h.Param(0))
		h.Ret(h.Add(h.Param(0), h.Load(pick())))
		steps := func(fb *ir.FB, acc ir.Reg, n int) {
			for k := 0; k < n; k++ {
				switch rng.Intn(6) {
				case 0:
					fb.Store(pick(), fb.Const(int64(1+rng.Intn(2))))
				case 1:
					fb.MoveTo(acc, fb.Add(acc, fb.Load(pick())))
				case 2:
					fb.MoveTo(acc, fb.Call("h", fb.Const(int64(1+rng.Intn(2)))))
				case 3:
					fb.MoveTo(acc, fb.CAS(fb.AddrOf(pick()), fb.Const(0), fb.Const(3)))
				case 4:
					fb.FetchAdd(fb.AddrOf(pick()), fb.Const(1))
				case 5:
					g, s := pick(), pick()
					fb.ForConst(0, 2, func(i ir.Reg) {
						fb.MoveTo(acc, fb.Add(acc, fb.Load(g)))
						fb.Store(s, fb.AddImm(i, 1))
					})
				}
			}
		}
		w := pb.Func("w", 0)
		wacc := w.Const(0)
		steps(w, wacc, 2+rng.Intn(2))
		w.Store(pb.Global("o1", 1), wacc)
		w.RetVoid()
		m := pb.Func("main", 0)
		macc := m.Const(0)
		steps(m, macc, rng.Intn(2))
		tid := m.Spawn("w")
		steps(m, macc, 2+rng.Intn(2))
		if rng.Intn(2) == 0 {
			m.Join(tid)
		}
		m.Store(pb.Global("o0", 1), macc)
		m.RetVoid()
		pb.SetMain("main")
		p := pb.MustBuild()
		for k, n := 0, 3+rng.Intn(4); k < n; k++ {
			f := p.Funcs[rng.Intn(len(p.Funcs))]
			blk := f.Blocks[rng.Intn(len(f.Blocks))]
			kind := ir.FenceFull
			if rng.Intn(3) == 0 {
				kind = ir.FenceCompiler
			}
			blk.Insert(rng.Intn(len(blk.Instrs)), &ir.Instr{Kind: ir.Fence, Imm: int64(kind)})
		}
		if err := p.Validate(); err != nil {
			panic(err)
		}
		out[name] = p
	}
	return out
}

// TestCalledEntryFenceKept: main buffers a store and then calls f, whose
// entry fence orders that store before f's load, against a spawned worker
// running the other, fenced half of store buffering. A called function
// may start with stores buffered, so the fence is effective: the analysis
// must keep it, the key must tell the build from the one without it, and
// only the build without it reaches the store-buffering outcome.
func TestCalledEntryFenceKept(t *testing.T) {
	build := func(entryFence bool) *ir.Program {
		pb := ir.NewProgram("callfence")
		x, y := pb.Global("x", 1), pb.Global("y", 1)
		r0, r1 := pb.Global("r0", 1), pb.Global("r1", 1)
		w := pb.Func("worker", 0)
		w.Store(y, w.Const(1))
		w.Fence(ir.FenceFull)
		w.Store(r1, w.Load(x))
		w.RetVoid()
		f := pb.Func("f", 0)
		if entryFence {
			f.Fence(ir.FenceFull)
		}
		f.Store(r0, f.Load(y))
		f.RetVoid()
		m := pb.Func("main", 0)
		tid := m.Spawn("worker")
		m.Store(x, m.Const(1))
		m.CallVoid("f")
		m.Join(tid)
		m.RetVoid()
		pb.SetMain("main")
		return pb.MustBuild()
	}
	fenced, unfenced := build(true), build(false)
	if _, removed := mc.StripNoOpFences(fenced); removed != 0 {
		t.Errorf("the analysis dropped %d fence(s), want none", removed)
	}
	cfg := mc.Config{Mode: tso.TSO, Workers: 1}
	if mc.ExplorationKey(fenced, nil, cfg) == mc.ExplorationKey(unfenced, nil, cfg) {
		t.Error("the build with f's entry fence keys like the one without it")
	}
	ctx := context.Background()
	sc, err := mc.ExploreCompleteCtx(ctx, fenced, nil, mc.Config{Mode: tso.SC, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		p    *ir.Program
		want bool // SC-equivalent
	}{{fenced, true}, {unfenced, false}} {
		ts, err := mc.ExploreCompleteCtx(ctx, tc.p, nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := reflect.DeepEqual(ts.Outcomes, sc.Outcomes); got != tc.want {
			t.Errorf("entry fence %v: TSO outcomes equal SC's: %v, want %v (%d TSO, %d SC)",
				tc.p == fenced, got, tc.want, len(ts.Outcomes), len(sc.Outcomes))
		}
	}
}
