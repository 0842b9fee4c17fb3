package tso

import (
	"slices"
	"strings"
	"testing"

	"fenceplace/internal/ir"
)

// mp builds the MP handshake with a final assertion that data was visible.
func mp(t testing.TB) *ir.Program {
	t.Helper()
	pb := ir.NewProgram("mp")
	data := pb.Global("data", 1)
	flag := pb.Global("flag", 1)
	prod := pb.Func("producer", 0)
	one := prod.Const(1)
	prod.Store(data, prod.Const(42))
	prod.Store(flag, one)
	prod.RetVoid()
	cons := pb.Func("consumer", 0)
	one2 := cons.Const(1)
	cons.SpinWhileNe(flag, ir.NoReg, one2)
	v := cons.Load(data)
	cons.Assert(cons.Eq(v, cons.Const(42)), "data visible after flag")
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

func TestMPCorrectUnderSCAndTSO(t *testing.T) {
	p := mp(t)
	for _, mode := range []Mode{SC, TSO} {
		for seed := int64(0); seed < 10; seed++ {
			out := Run(p, Config{Mode: mode, Sched: Random, Policy: DrainRandom, Seed: seed})
			if out.Failed() {
				// MP is w→w / r→r; TSO preserves both orders, so this must
				// never fail even without fences.
				t.Fatalf("%s seed %d: %v %v", mode, seed, out.Failures, out.Err)
			}
			if out.Global("data") != 42 || out.Global("flag") != 1 {
				t.Fatalf("%s seed %d: final data=%d flag=%d", mode, seed, out.Global("data"), out.Global("flag"))
			}
		}
	}
}

func TestStoreToLoadForwarding(t *testing.T) {
	// A thread must see its own buffered store even under DrainLazy.
	pb := ir.NewProgram("fwd")
	x := pb.Global("x", 1)
	main := pb.Func("main", 0)
	main.Store(x, main.Const(7))
	v := main.Load(x)
	main.Assert(main.Eq(v, main.Const(7)), "own store forwarded")
	main.RetVoid()
	pb.SetMain("main")
	p := pb.MustBuild()
	out := Run(p, Config{Mode: TSO, Policy: DrainLazy})
	if out.Failed() {
		t.Fatalf("forwarding broken: %v", out.Failures)
	}
}

func TestCallsAndReturns(t *testing.T) {
	// Recursive fib through the interpreter's frame stack.
	pb := ir.NewProgram("fib")
	res := pb.Global("res", 1)
	fib := pb.Func("fib", 1)
	n := fib.Param(0)
	fib.IfElse(fib.Lt(n, fib.Const(2)), func() {
		fib.Ret(n)
	}, func() {
		a := fib.Call("fib", fib.Sub(n, fib.Const(1)))
		b := fib.Call("fib", fib.Sub(n, fib.Const(2)))
		fib.Ret(fib.Add(a, b))
	})
	// Unreachable tail for validation: IfElse leaves an open join block.
	fib.Ret(fib.Const(0))
	main := pb.Func("main", 0)
	main.Store(res, main.Call("fib", main.Const(10)))
	main.RetVoid()
	pb.SetMain("main")
	p := pb.MustBuild()
	out := Run(p, Config{Mode: SC})
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if got := out.Global("res"); got != 55 {
		t.Fatalf("fib(10) = %d, want 55", got)
	}
}

func TestFetchAddAtomicUnderContention(t *testing.T) {
	pb := ir.NewProgram("counter")
	ctr := pb.Global("ctr", 1)
	w := pb.Func("worker", 0)
	pc := w.AddrOf(ctr)
	one := w.Const(1)
	w.ForConst(0, 100, func(i ir.Reg) {
		w.FetchAdd(pc, one)
	})
	w.RetVoid()
	main := pb.Func("main", 0)
	var tids []ir.Reg
	for i := 0; i < 4; i++ {
		tids = append(tids, main.Spawn("worker"))
	}
	for _, tid := range tids {
		main.Join(tid)
	}
	v := main.Load(ctr)
	main.Assert(main.Eq(v, main.Const(400)), "atomic counter")
	main.RetVoid()
	pb.SetMain("main")
	p := pb.MustBuild()
	for seed := int64(0); seed < 5; seed++ {
		out := Run(p, Config{Mode: TSO, Sched: Random, Policy: DrainLazy, Seed: seed})
		if out.Failed() {
			t.Fatalf("seed %d: %v", seed, out.Failures)
		}
		if out.Global("ctr") != 400 {
			t.Fatalf("seed %d: ctr = %d, want 400", seed, out.Global("ctr"))
		}
		if out.RMWs != 400 {
			t.Fatalf("seed %d: %d RMWs executed, want 400", seed, out.RMWs)
		}
	}
}

// peterson builds Peterson's mutual exclusion with an unprotected counter
// increment in the critical section; fenced controls whether the w→r entry
// fences are present. Without them, TSO store buffering breaks mutual
// exclusion and increments are lost.
func peterson(t testing.TB, fenced bool, iters int64) *ir.Program {
	t.Helper()
	pb := ir.NewProgram("peterson")
	flag := pb.Global("flag", 2)
	turn := pb.Global("turn", 1)
	ctr := pb.Global("ctr", 1)

	worker := func(name string, me, other int64) {
		b := pb.Func(name, 0)
		meR := b.Const(me)
		otherR := b.Const(other)
		one := b.Const(1)
		zero := b.Const(0)
		b.ForConst(0, iters, func(i ir.Reg) {
			b.StoreIdx(flag, meR, one)
			b.Store(turn, otherR)
			if fenced {
				b.Fence(ir.FenceFull)
			}
			// while (flag[other] == 1 && turn == other) spin
			b.While(func() ir.Reg {
				fo := b.LoadIdx(flag, otherR)
				tu := b.Load(turn)
				return b.And(b.Eq(fo, one), b.Eq(tu, otherR))
			}, func() {})
			// critical section: racy increment, protected only by the lock
			v := b.Load(ctr)
			b.Store(ctr, b.Add(v, one))
			b.StoreIdx(flag, meR, zero)
			_ = zero
		})
		b.RetVoid()
	}
	worker("p0", 0, 1)
	worker("p1", 1, 0)
	main := pb.Func("main", 0)
	t0 := main.Spawn("p0")
	t1 := main.Spawn("p1")
	main.Join(t0)
	main.Join(t1)
	v := main.Load(ctr)
	main.Assert(main.Eq(v, main.Const(2*iters)), "no lost updates in critical section")
	main.RetVoid()
	pb.SetMain("main")
	return pb.MustBuild()
}

func TestPetersonRequiresFencesUnderTSO(t *testing.T) {
	unfenced := peterson(t, false, 50)
	violated := false
	for seed := int64(0); seed < 8 && !violated; seed++ {
		out := Run(unfenced, Config{Mode: TSO, Sched: Random, Policy: DrainLazy, Seed: seed})
		if len(out.Failures) > 0 {
			violated = true
		}
	}
	if !violated {
		t.Error("unfenced Peterson never lost an update under lazy TSO; the simulator is too strong")
	}

	fenced := peterson(t, true, 50)
	for seed := int64(0); seed < 8; seed++ {
		out := Run(fenced, Config{Mode: TSO, Sched: Random, Policy: DrainLazy, Seed: seed})
		if out.Failed() {
			t.Fatalf("fenced Peterson failed (seed %d): %v %v", seed, out.Failures, out.Err)
		}
		if out.FullFences == 0 {
			t.Fatal("fences not executed")
		}
	}
}

func TestPetersonCorrectUnderSCWithoutFences(t *testing.T) {
	p := peterson(t, false, 50)
	for seed := int64(0); seed < 8; seed++ {
		out := Run(p, Config{Mode: SC, Sched: Random, Seed: seed})
		if out.Failed() {
			t.Fatalf("SC Peterson failed (seed %d): %v", seed, out.Failures)
		}
	}
}

func TestFenceCostVisibleInCycles(t *testing.T) {
	build := func(fenced bool) *ir.Program {
		pb := ir.NewProgram("cost")
		x := pb.Global("x", 1)
		main := pb.Func("main", 0)
		main.ForConst(0, 100, func(i ir.Reg) {
			main.Store(x, i)
			if fenced {
				main.Fence(ir.FenceFull)
			}
			v := main.Load(x)
			_ = v
		})
		main.RetVoid()
		pb.SetMain("main")
		return pb.MustBuild()
	}
	with := Run(build(true), Config{Mode: TSO, Policy: DrainLazy})
	without := Run(build(false), Config{Mode: TSO, Policy: DrainLazy})
	if with.Err != nil || without.Err != nil {
		t.Fatal(with.Err, without.Err)
	}
	if with.FullFences != 100 {
		t.Fatalf("executed %d fences, want 100", with.FullFences)
	}
	if with.MaxCycles <= without.MaxCycles {
		t.Fatalf("fenced run (%d cycles) not slower than unfenced (%d)", with.MaxCycles, without.MaxCycles)
	}
	// Compiler barriers must be free.
	pbComp := ir.NewProgram("comp")
	x := pbComp.Global("x", 1)
	mainC := pbComp.Func("main", 0)
	mainC.ForConst(0, 100, func(i ir.Reg) {
		mainC.Store(x, i)
		mainC.Fence(ir.FenceCompiler)
		v := mainC.Load(x)
		_ = v
	})
	mainC.RetVoid()
	pbComp.SetMain("main")
	comp := Run(pbComp.MustBuild(), Config{Mode: TSO, Policy: DrainLazy})
	if comp.FullFences != 0 {
		t.Fatal("compiler barrier counted as full fence")
	}
	if comp.MaxCycles != without.MaxCycles {
		t.Fatalf("compiler barrier changed timing: %d vs %d", comp.MaxCycles, without.MaxCycles)
	}
}

func TestLivelockGuard(t *testing.T) {
	pb := ir.NewProgram("hang")
	flag := pb.Global("flag", 1)
	main := pb.Func("main", 0)
	main.SpinWhileNe(flag, ir.NoReg, main.Const(1)) // never satisfied
	main.RetVoid()
	pb.SetMain("main")
	out := Run(pb.MustBuild(), Config{Mode: SC, MaxSteps: 10_000})
	if !out.Deadlock {
		t.Fatal("livelock not detected")
	}
}

func TestRuntimeErrors(t *testing.T) {
	t.Run("out of bounds index", func(t *testing.T) {
		pb := ir.NewProgram("oob")
		g := pb.Global("g", 2)
		main := pb.Func("main", 0)
		v := main.LoadIdx(g, main.Const(5))
		_ = v
		main.RetVoid()
		pb.SetMain("main")
		out := Run(pb.MustBuild(), Config{})
		if out.Err == nil || !strings.Contains(out.Err.Error(), "out of bounds") {
			t.Fatalf("err = %v", out.Err)
		}
	})
	t.Run("wild pointer", func(t *testing.T) {
		pb := ir.NewProgram("wild")
		main := pb.Func("main", 0)
		v := main.LoadPtr(main.Const(999999))
		_ = v
		main.RetVoid()
		pb.SetMain("main")
		out := Run(pb.MustBuild(), Config{})
		if out.Err == nil || !strings.Contains(out.Err.Error(), "wild address") {
			t.Fatalf("err = %v", out.Err)
		}
	})
	t.Run("missing main", func(t *testing.T) {
		pb := ir.NewProgram("nomain")
		f := pb.Func("f", 0)
		f.RetVoid()
		p := pb.MustBuild()
		out := Run(p, Config{})
		if out.Err == nil {
			t.Fatal("missing main not reported")
		}
	})
}

func TestAssertRecordsFailure(t *testing.T) {
	pb := ir.NewProgram("a")
	main := pb.Func("main", 0)
	main.Assert(main.Const(0), "always fails")
	main.RetVoid()
	pb.SetMain("main")
	out := Run(pb.MustBuild(), Config{})
	if len(out.Failures) != 1 || !strings.Contains(out.Failures[0], "always fails") {
		t.Fatalf("failures = %v", out.Failures)
	}
}

func TestPrintAndAllocas(t *testing.T) {
	pb := ir.NewProgram("p")
	main := pb.Func("main", 0)
	buf := main.Alloca(4)
	main.StorePtr(main.Gep(buf, main.Const(2)), main.Const(9))
	v := main.LoadPtr(main.Gep(buf, main.Const(2)))
	main.Print(v)
	main.RetVoid()
	pb.SetMain("main")
	out := Run(pb.MustBuild(), Config{})
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if len(out.Printed) != 1 || out.Printed[0] != 9 {
		t.Fatalf("printed = %v, want [9]", out.Printed)
	}
}

// TestMemoryCapBoundsTheArena pins the MemoryCap rule the simulator shares
// with the model checker: an Alloca past a positive cap fails the run, a
// zero cap means DefaultMemoryCap and a negative one means uncapped.
func TestMemoryCapBoundsTheArena(t *testing.T) {
	pb := ir.NewProgram("arena")
	pb.Global("g", 1)
	main := pb.Func("main", 0)
	main.Alloca(64)
	main.RetVoid()
	pb.SetMain("main")
	p := pb.MustBuild()
	if out := Run(p, Config{MemoryCap: 32}); out.Err == nil || !strings.Contains(out.Err.Error(), "arena exhausted") {
		t.Fatalf("MemoryCap 32: err = %v, want arena exhausted", out.Err)
	}
	for _, memCap := range []int{0, -1} {
		if out := Run(p, Config{MemoryCap: memCap}); out.Failed() {
			t.Fatalf("MemoryCap %d: %v %v", memCap, out.Failures, out.Err)
		}
	}
}

func TestMinTimeSchedulerDeterministic(t *testing.T) {
	p := mp(t)
	a := Run(p, Config{Mode: TSO, Sched: MinTime, Policy: DrainLazy})
	b := Run(p, Config{Mode: TSO, Sched: MinTime, Policy: DrainLazy})
	if a.MaxCycles != b.MaxCycles || a.Steps != b.Steps {
		t.Fatalf("MinTime+DrainLazy not deterministic: (%d,%d) vs (%d,%d)",
			a.MaxCycles, a.Steps, b.MaxCycles, b.Steps)
	}
}

func TestBufferCapForcesDrain(t *testing.T) {
	// More stores than the buffer holds: earlier stores must become
	// visible even under DrainLazy.
	pb := ir.NewProgram("cap")
	g := pb.Global("g", 64)
	obs := pb.Global("obs", 1)
	w := pb.Func("writer", 0)
	w.ForConst(0, 64, func(i ir.Reg) {
		w.StoreIdx(g, i, w.Const(1))
	})
	w.SpinWhileNe(obs, ir.NoReg, w.Const(1)) // keep thread alive, no exit drain
	w.RetVoid()
	r := pb.Func("reader", 0)
	r.SpinWhileNe(g, r.Const(0), r.Const(1)) // waits for g[0] to appear
	r.Store(obs, r.Const(1))
	r.RetVoid()
	main := pb.Func("main", 0)
	t1 := main.Spawn("writer")
	t2 := main.Spawn("reader")
	main.Join(t1)
	main.Join(t2)
	main.RetVoid()
	pb.SetMain("main")
	out := Run(pb.MustBuild(), Config{Mode: TSO, Sched: Random, Policy: DrainLazy, BufferCap: 8, Seed: 3})
	if out.Failed() {
		t.Fatalf("capacity-forced drain missing: %v %v", out.Failures, out.Err)
	}
}

// TestRandomSchedulerPinned pins the Random scheduler's exact runs: the
// step and cycle counts and the final globals of mp and unfenced Peterson
// at seeds 0-9, under SC and under TSO with DrainRandom. The values were
// recorded before the step loop stopped building a ready list per step;
// any change to which threads the scheduler draws from, or in what order,
// moves them.
func TestRandomSchedulerPinned(t *testing.T) {
	progs := map[string]*ir.Program{"mp": mp(t), "peterson": peterson(t, false, 20)}
	for _, c := range []struct {
		prog      string
		mode      Mode
		seed      int64
		steps     int64
		maxCycles int64
		sumCycles int64
		globals   []int64
	}{
		{"mp", SC, 0, 22, 35, 61, []int64{42, 1}},
		{"mp", SC, 1, 21, 30, 56, []int64{42, 1}},
		{"mp", SC, 2, 22, 35, 61, []int64{42, 1}},
		{"mp", SC, 3, 26, 35, 67, []int64{42, 1}},
		{"mp", SC, 4, 26, 35, 67, []int64{42, 1}},
		{"mp", SC, 5, 22, 35, 61, []int64{42, 1}},
		{"mp", SC, 6, 22, 35, 61, []int64{42, 1}},
		{"mp", SC, 7, 22, 35, 61, []int64{42, 1}},
		{"mp", SC, 8, 22, 35, 61, []int64{42, 1}},
		{"mp", SC, 9, 22, 35, 61, []int64{42, 1}},
		{"mp", TSO, 0, 26, 35, 67, []int64{42, 1}},
		{"mp", TSO, 1, 21, 30, 56, []int64{42, 1}},
		{"mp", TSO, 2, 22, 35, 61, []int64{42, 1}},
		{"mp", TSO, 3, 26, 35, 67, []int64{42, 1}},
		{"mp", TSO, 4, 26, 35, 67, []int64{42, 1}},
		{"mp", TSO, 5, 22, 35, 61, []int64{42, 1}},
		{"mp", TSO, 6, 30, 35, 73, []int64{42, 1}},
		{"mp", TSO, 7, 22, 35, 61, []int64{42, 1}},
		{"mp", TSO, 8, 22, 35, 61, []int64{42, 1}},
		{"mp", TSO, 9, 22, 35, 61, []int64{42, 1}},
		{"peterson", SC, 0, 1112, 815, 1593, []int64{0, 0, 0, 40}},
		{"peterson", SC, 1, 1035, 716, 1472, []int64{0, 0, 0, 40}},
		{"peterson", SC, 2, 1028, 727, 1461, []int64{0, 0, 0, 40}},
		{"peterson", SC, 3, 1111, 782, 1588, []int64{0, 0, 1, 40}},
		{"peterson", SC, 4, 1098, 771, 1571, []int64{0, 0, 0, 40}},
		{"peterson", SC, 5, 1070, 782, 1527, []int64{0, 0, 0, 40}},
		{"peterson", SC, 6, 1160, 815, 1665, []int64{0, 0, 1, 40}},
		{"peterson", SC, 7, 1140, 848, 1637, []int64{0, 0, 0, 40}},
		{"peterson", SC, 8, 1007, 694, 1428, []int64{0, 0, 0, 40}},
		{"peterson", SC, 9, 1118, 804, 1599, []int64{0, 0, 1, 40}},
		{"peterson", TSO, 0, 1469, 1043, 2088, []int64{0, 0, 0, 40}},
		{"peterson", TSO, 1, 1244, 847, 1725, []int64{0, 0, 1, 40}},
		{"peterson", TSO, 2, 1497, 1059, 2120, []int64{0, 0, 0, 39}},
		{"peterson", TSO, 3, 1525, 1083, 2164, []int64{0, 0, 0, 40}},
		{"peterson", TSO, 4, 1412, 1011, 1985, []int64{0, 0, 1, 38}},
		{"peterson", TSO, 5, 1539, 1102, 2196, []int64{0, 0, 0, 39}},
		{"peterson", TSO, 6, 1434, 1034, 2031, []int64{0, 0, 0, 40}},
		{"peterson", TSO, 7, 1665, 1235, 2376, []int64{0, 0, 0, 40}},
		{"peterson", TSO, 8, 1476, 1033, 2075, []int64{0, 0, 0, 40}},
		{"peterson", TSO, 9, 1482, 1059, 2089, []int64{0, 0, 1, 40}},
	} {
		p := progs[c.prog]
		o := Run(p, Config{Mode: c.mode, Sched: Random, Policy: DrainRandom, Seed: c.seed})
		var cells []int64
		for _, g := range p.Globals {
			for i := 0; i < g.Size; i++ {
				cells = append(cells, o.GlobalIdx(g.Name, i))
			}
		}
		if o.Steps != c.steps || o.MaxCycles != c.maxCycles || o.SumCycles != c.sumCycles ||
			!slices.Equal(cells, c.globals) {
			t.Errorf("%s %s seed %d: steps=%d max=%d sum=%d globals=%v, want %d %d %d %v",
				c.prog, c.mode, c.seed, o.Steps, o.MaxCycles, o.SumCycles, cells,
				c.steps, c.maxCycles, c.sumCycles, c.globals)
		}
	}
}

// spinLoop builds two workers that each run iters iterations of a store,
// a load of the other's cell and a call, then raise a done flag and spin
// until the other's is raised too. Only the number of simulated steps
// depends on iters.
func spinLoop(t testing.TB, iters int64) *ir.Program {
	t.Helper()
	pb := ir.NewProgram("spinloop")
	x := pb.Global("x", 2)
	done := pb.Global("done", 2)
	inc := pb.Func("inc", 1)
	inc.Ret(inc.AddImm(inc.Param(0), 1))
	worker := func(name string, me, other int64) {
		b := pb.Func(name, 0)
		meR, otherR, one := b.Const(me), b.Const(other), b.Const(1)
		b.ForConst(0, iters, func(i ir.Reg) {
			b.StoreIdx(x, meR, b.Call("inc", i))
			b.LoadIdx(x, otherR)
		})
		b.StoreIdx(done, meR, one)
		b.SpinWhileNe(done, otherR, one)
		b.RetVoid()
	}
	worker("w0", 0, 1)
	worker("w1", 1, 0)
	main := pb.Func("main", 0)
	t0 := main.Spawn("w0")
	t1 := main.Spawn("w1")
	main.Join(t0)
	main.Join(t1)
	main.RetVoid()
	pb.SetMain("main")
	return pb.MustBuild()
}

// TestRunAllocsPerRunIndependentOfSteps pins the simulator's hot path:
// a run allocates for its setup (machine, threads, frames, outcome) but
// nothing per simulated step, so a hundredfold longer run allocates
// exactly as much — under the Figure 10 configuration (MinTime, TSO,
// DrainRandom) and under the Random scheduler (SC).
func TestRunAllocsPerRunIndependentOfSteps(t *testing.T) {
	short, long := spinLoop(t, 10), spinLoop(t, 1000)
	for _, cfg := range []Config{
		{Mode: TSO, Sched: MinTime, Policy: DrainRandom},
		{Mode: SC, Sched: Random, Seed: 1},
	} {
		allocs := func(p *ir.Program) float64 {
			var out *Outcome
			n := testing.AllocsPerRun(20, func() { out = Run(p, cfg) })
			if out.Failed() {
				t.Fatalf("%s: %v %v", cfg.Mode, out.Failures, out.Err)
			}
			return n
		}
		if a, b := allocs(short), allocs(long); a != b {
			t.Errorf("%s sched %d: %v allocs at 10 iterations, %v at 1000", cfg.Mode, cfg.Sched, a, b)
		}
	}
}

// joinRecorder is a Tracer that records the Spawn and Join events of a run.
type joinRecorder struct {
	spawns, joins [][2]int
}

func (r *joinRecorder) Access(int, *ir.Instr, int64, bool) {}
func (r *joinRecorder) Spawn(parent, child int)            { r.spawns = append(r.spawns, [2]int{parent, child}) }
func (r *joinRecorder) Join(parent, child int)             { r.joins = append(r.joins, [2]int{parent, child}) }

// TestJoinTracedOnce: each executed Join instruction reports one Join
// event, whether it found its target finished or blocked until it was.
// main joins a worker that is still running (its 200-iteration loop
// cannot finish before main's next step: MinTime runs the worker until its
// cycles pass main's, and Random would have to draw the worker every step
// for hundreds of steps), then a short worker that has finished by then.
func TestJoinTracedOnce(t *testing.T) {
	pb := ir.NewProgram("join")
	ctr := pb.Global("ctr", 1)
	long := pb.Func("long", 0)
	pc := long.AddrOf(ctr)
	one := long.Const(1)
	long.ForConst(0, 200, func(ir.Reg) { long.FetchAdd(pc, one) })
	long.RetVoid()
	short := pb.Func("short", 0)
	short.RetVoid()
	main := pb.Func("main", 0)
	a := main.Spawn("long")
	b := main.Spawn("short")
	main.Join(a)
	main.Join(b)
	main.RetVoid()
	pb.SetMain("main")
	p := pb.MustBuild()

	for _, cfg := range []Config{
		{Mode: TSO, Sched: MinTime},
		{Mode: TSO, Sched: Random, Seed: 1},
		{Mode: TSO, Sched: Random, Seed: 2},
		{Mode: SC, Sched: Random, Seed: 3},
	} {
		rec := &joinRecorder{}
		cfg.Tracer = rec
		if out := Run(p, cfg); out.Failed() {
			t.Fatalf("sched %d seed %d: %v %v", cfg.Sched, cfg.Seed, out.Failures, out.Err)
		}
		want := [][2]int{{0, 1}, {0, 2}}
		if !slices.Equal(rec.spawns, want) || !slices.Equal(rec.joins, want) {
			t.Errorf("sched %d seed %d: spawns %v, joins %v; want %v for both",
				cfg.Sched, cfg.Seed, rec.spawns, rec.joins, want)
		}
	}
}
