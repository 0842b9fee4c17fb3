package mc_test

// The partial-order reduction tests that need the fence-placement
// pipeline (the Control builds come from internal/passes, which imports
// this package) or exercise calls, branches and loops the legacy explorer
// is not compared on; the differentials compare against the unreduced
// exploration, Config.NoPOR.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"fenceplace/internal/ir"
	"fenceplace/internal/mc"
	"fenceplace/internal/passes"
	"fenceplace/internal/progs"
	"fenceplace/internal/tso"
)

// porAgreesWithNoPOR explores p under mode with and without the reduction
// and demands identical final-state sets. It returns false, without
// failing, when the unreduced run does not close within budget.
func porAgreesWithNoPOR(t *testing.T, label string, p *ir.Program, threads []string, mode tso.Mode, budget int64) bool {
	t.Helper()
	naive, err := mc.Explore(p, threads, mc.Config{Mode: mode, NoPOR: true, MaxStates: budget})
	if err != nil {
		t.Fatalf("%s: NoPOR: %v", label, err)
	}
	if naive.Truncated {
		return false
	}
	por, err := mc.Explore(p, threads, mc.Config{Mode: mode})
	if err != nil {
		t.Fatalf("%s: POR: %v", label, err)
	}
	if por.Truncated {
		t.Fatalf("%s: POR truncated where NoPOR closed in %d states", label, naive.Visited)
	}
	if got, want := por.Keys(), naive.Keys(); !slices.Equal(got, want) {
		t.Fatalf("%s: POR outcomes differ from NoPOR\n  POR   %v\n  NoPOR %v", label, got, want)
	}
	if por.Visited >= naive.Visited {
		t.Errorf("%s: POR visited %d >= NoPOR %d", label, por.Visited, naive.Visited)
	}
	return true
}

// TestWholeProgramPORDifferential checks the reduction, invisible-step
// merging included, against the unreduced exploration: on every
// cert-kernels program (spawn, join, spin loops) whose NoPOR run closes at
// size 1, in its unfenced, Control and Manual builds; on random programs
// whose threads call helper functions, so chains of Call, Ret and Alloca
// steps are merged; and on random programs that branch on loaded values,
// so chains through forward branches are merged. The final-state sets
// must coincide and the reduction must visit fewer states.
func TestWholeProgramPORDifferential(t *testing.T) {
	modes := []tso.Mode{tso.TSO, tso.SC}
	t.Run("kernels", func(t *testing.T) {
		checked := 0
		for _, m := range progs.ByKind(progs.SyncKernel) {
			pp := m.CertParams(0, 1)
			orig := m.Build(pp)
			ctl := passes.NewSession(m.Build(pp)).Instrumented(passes.Control)
			pp.Manual = true
			for _, b := range []struct {
				name string
				p    *ir.Program
			}{{"unfenced", orig}, {"Control", ctl}, {"Manual", m.Build(pp)}} {
				for _, mode := range modes {
					label := fmt.Sprintf("%s/%s/%s", m.Name, b.name, mode)
					if porAgreesWithNoPOR(t, label, b.p, nil, mode, 1<<18) {
						checked++
					} else {
						t.Logf("%s: NoPOR does not close in 1<<18 states, skipped", label)
					}
				}
			}
		}
		if checked == 0 {
			t.Fatal("no kernel closed without POR")
		}
	})
	random := func(progs map[string]*ir.Program) func(t *testing.T) {
		return func(t *testing.T) {
			for name, p := range progs {
				for _, mode := range modes {
					label := fmt.Sprintf("%s/%s", name, mode)
					if !porAgreesWithNoPOR(t, label, p, []string{"t0", "t1"}, mode, 1<<20) {
						t.Fatalf("%s: NoPOR truncated", label)
					}
				}
			}
		}
	}
	t.Run("random-calls", random(randomCallPrograms(20261017, 30)))
	t.Run("random-branches", random(randomBranchPrograms(20261019, 30)))
}

// randomBranchPrograms generates two-thread programs over a few shared
// globals whose control flow depends on what the threads load: diamonds
// whose arms store different values, early returns, and loops of one or
// two trips that load and store on every trip, so forward branches merge
// and the retreating branch of each loop stays a stored state.
func randomBranchPrograms(seed int64, trials int) map[string]*ir.Program {
	rng := rand.New(rand.NewSource(seed))
	out := make(map[string]*ir.Program, trials)
	for trial := 0; trial < trials; trial++ {
		name := fmt.Sprintf("branches%d", trial)
		pb := ir.NewProgram(name)
		gs := []*ir.Global{pb.Global("x", 1), pb.Global("y", 1), pb.Global("z", 1)}
		pick := func() *ir.Global { return gs[rng.Intn(len(gs))] }
		for ti := 0; ti < 2; ti++ {
			fb := pb.Func(fmt.Sprintf("t%d", ti), 0)
			o := pb.Global(fmt.Sprintf("o%d", ti), 1)
			acc := fb.Const(0)
			for k, n := 0, 2+rng.Intn(2); k < n; k++ {
				switch rng.Intn(4) {
				case 0:
					fb.Store(pick(), fb.Const(int64(1+rng.Intn(2))))
				case 1: // diamond on a loaded value
					v := fb.Load(pick())
					a, b := pick(), pick()
					fb.IfElse(fb.Gt(v, fb.Const(0)), func() {
						fb.Store(a, fb.Const(int64(1+rng.Intn(2))))
						fb.MoveTo(acc, fb.Add(acc, v))
					}, func() {
						fb.Store(b, fb.Const(int64(1+rng.Intn(2))))
					})
				case 2: // early return
					v := fb.Load(pick())
					fb.If(fb.Eq(v, fb.Const(int64(rng.Intn(2)))), func() {
						fb.Store(o, fb.AddImm(v, 10))
						fb.RetVoid()
					})
				case 3: // bounded loop: a retreating edge
					g, h := pick(), pick()
					fb.ForConst(0, int64(1+rng.Intn(2)), func(i ir.Reg) {
						fb.MoveTo(acc, fb.Add(acc, fb.Load(g)))
						fb.Store(h, fb.Add(i, fb.Const(1)))
					})
				}
			}
			fb.Store(o, acc)
			fb.RetVoid()
		}
		out[name] = pb.MustBuild()
	}
	return out
}

// randomCallPrograms generates two-thread programs over a few shared
// globals whose threads reach memory through helper functions: each
// helper stores its argument, loads a global, spills a value through an
// Alloca'd slot and may call a lower-numbered helper, and each thread
// calls helpers and publishes what they return.
func randomCallPrograms(seed int64, trials int) map[string]*ir.Program {
	rng := rand.New(rand.NewSource(seed))
	out := make(map[string]*ir.Program, trials)
	for trial := 0; trial < trials; trial++ {
		name := fmt.Sprintf("calls%d", trial)
		pb := ir.NewProgram(name)
		gs := []*ir.Global{pb.Global("x", 1), pb.Global("y", 1), pb.Global("z", 1)}
		pick := func() *ir.Global { return gs[rng.Intn(len(gs))] }
		const helpers = 3
		for h := 0; h < helpers; h++ {
			fb := pb.Func(fmt.Sprintf("h%d", h), 1)
			v := fb.Param(0)
			for k, n := 0, 1+rng.Intn(2); k < n; k++ {
				switch rng.Intn(5) {
				case 0:
					fb.Store(pick(), v)
				case 1:
					v = fb.Add(v, fb.Load(pick()))
				case 2:
					slot := fb.Alloca(1)
					fb.StorePtr(slot, v)
					v = fb.LoadPtr(slot)
				case 3:
					if h > 0 {
						v = fb.Call(fmt.Sprintf("h%d", rng.Intn(h)), v)
					}
				case 4:
					fb.Fence(ir.FenceFull)
				}
			}
			fb.Ret(v)
		}
		for ti := 0; ti < 2; ti++ {
			fb := pb.Func(fmt.Sprintf("t%d", ti), 0)
			for k, n := 0, 1+rng.Intn(2); k < n; k++ {
				o := pb.Global(fmt.Sprintf("o%d_%d", ti, k), 1)
				r := fb.Call(fmt.Sprintf("h%d", rng.Intn(helpers)), fb.Const(int64(1+rng.Intn(2))))
				fb.Store(o, r)
			}
			fb.RetVoid()
		}
		out[name] = pb.MustBuild()
	}
	return out
}

// TestBranchFreeRecursionTruncates: a thread that recurses without ever
// branching is one endless chain of invisible steps. Merging must give up
// at the state budget and report a truncated exploration, whether the
// chain starts at the root (a litmus thread) or behind a Spawn (a whole
// program), never hang or report a verdict.
func TestBranchFreeRecursionTruncates(t *testing.T) {
	pb := ir.NewProgram("recurse")
	done := pb.Global("done", 1)
	rec := pb.Func("rec", 0)
	rec.CallVoid("rec")
	rec.RetVoid()
	main := pb.Func("main", 0)
	main.Join(main.Spawn("rec"))
	main.Store(done, main.Const(1))
	main.RetVoid()
	pb.SetMain("main")
	p := pb.MustBuild()

	for _, c := range []struct {
		name    string
		threads []string
	}{{"root", []string{"rec"}}, {"spawned", nil}} {
		for _, mode := range []tso.Mode{tso.TSO, tso.SC} {
			label := fmt.Sprintf("%s/%s", c.name, mode)
			errc := make(chan error, 1)
			go func() {
				_, err := mc.ExploreCompleteCtx(context.Background(), p, c.threads, mc.Config{Mode: mode, MaxStates: 1000})
				errc <- err
			}()
			select {
			case err := <-errc:
				if !errors.Is(err, mc.ErrTruncated) {
					t.Errorf("%s: exploration returned %v, want ErrTruncated", label, err)
				}
			case <-time.After(time.Minute):
				t.Fatalf("%s: exploration still running after a minute", label)
			}
		}
	}
}

// localLoopsSrc pairs a thread that stores with threads that loop forever
// on registers alone: an empty self-loop and a counter that wraps and
// whose exit test never holds. Each loop's only way around is a
// retreating branch.
const localLoopsSrc = `
program localloops
global g 1

func writer params=0 regs=1 {
entry:
  r0 = const 1
  store g, r0
  r0 = const 2
  store g, r0
  ret
}

func spin params=0 regs=0 {
entry:
  jmp entry
}

func counter params=0 regs=3 {
entry:
  r0 = const 0
  jmp loop
loop:
  r1 = const 1
  r0 = add r0, r1
  r1 = const 3
  r0 = mod r0, r1
  r2 = const 0
  r2 = ge r0, r2
  br r2, loop, out
out:
  ret
}
`

// TestLocalEndlessLoopCloses pins the half of the det rule that keeps
// retreating branches out of merged chains: a thread spinning on
// registers alone must leave a stored state on every trip around its
// loop, so the exploration closes through the seen set instead of
// chaining invisible steps until the budget runs out.
func TestLocalEndlessLoopCloses(t *testing.T) {
	p, err := ir.Parse(localLoopsSrc)
	if err != nil {
		t.Fatal(err)
	}
	for _, looper := range []string{"spin", "counter"} {
		for _, mode := range []tso.Mode{tso.TSO, tso.SC} {
			label := fmt.Sprintf("%s/%s", looper, mode)
			res, err := mc.ExploreCompleteCtx(context.Background(), p, []string{looper, "writer"},
				mc.Config{Mode: mode, MaxStates: 1000})
			if err != nil {
				t.Errorf("%s: exploration returned %v, want it to close", label, err)
				continue
			}
			if len(res.Outcomes) != 0 {
				t.Errorf("%s: outcomes %v from a thread that never finishes", label, res.Keys())
			}
		}
	}
}
