package progs

import "fenceplace/internal/ir"

// This file provides the synchronization idioms the corpus inlines into its
// worker functions: test-and-set spin locks, sense-reversing barriers and
// ad-hoc flag synchronization. They are emitted inline (not as
// separate ir functions) because that is how the paper's subjects look
// after -O2 — PARMACS macros and small lock routines are expanded into
// their callers — and because the detection algorithms are intraprocedural.

// lockAcquire spins on a CAS until it takes the lock. The CAS result feeds
// the spin branch, so the lock read is a control acquire; the LOCK prefix
// makes it a full barrier at run time.
func lockAcquire(b *ir.FB, lock *ir.Global) {
	pl := b.AddrOf(lock)
	zero := b.Const(0)
	one := b.Const(1)
	b.While(func() ir.Reg {
		got := b.CAS(pl, zero, one)
		return b.Eq(got, zero)
	}, func() {})
}

// lockRelease stores 0 — a release write; on TSO the next CAS drains it.
func lockRelease(b *ir.FB, lock *ir.Global) {
	b.Store(lock, b.Const(0))
}

// barrierState groups the globals of one sense-reversing barrier.
type barrierState struct {
	count *ir.Global // arrivals in the current episode
	sense *ir.Global // global sense flag
}

func newBarrier(pb *ir.ProgBuilder, name string) barrierState {
	return barrierState{
		count: pb.Global(name+"_count", 1),
		sense: pb.Global(name+"_sense", 1),
	}
}

// barrierWait emits one sense-reversing barrier episode. localSense is a
// caller-owned register that the barrier flips in place. The last arriver
// resets the count and publishes the new sense; everyone else spins on the
// sense flag — the classic control-acquire busy wait.
func (bar barrierState) wait(b *ir.FB, localSense ir.Reg, nthreads int64) {
	one := b.Const(1)
	b.MoveTo(localSense, b.Sub(one, localSense))
	pos := b.FetchAdd(b.AddrOf(bar.count), one)
	b.IfElse(b.Eq(pos, b.Const(nthreads-1)), func() {
		b.Store(bar.count, b.Const(0))
		b.Store(bar.sense, localSense)
	}, func() {
		b.SpinWhileNe(bar.sense, ir.NoReg, localSense)
	})
}

// flagSet publishes a flag value (ad-hoc FMM/Volrend-style sync).
func flagSet(b *ir.FB, flag *ir.Global, idx ir.Reg, val int64) {
	v := b.Const(val)
	if idx == ir.NoReg {
		b.Store(flag, v)
	} else {
		b.StoreIdx(flag, idx, v)
	}
}

// flagWait spins until flag[idx] == want: a control acquire.
func flagWait(b *ir.FB, flag *ir.Global, idx ir.Reg, want int64) {
	b.SpinWhileNe(flag, idx, b.Const(want))
}

// spawnWorkers emits the canonical main function: spawn nthreads copies of
// worker (passing the thread index), join them all, then run check to
// assert the program invariant.
func spawnWorkers(pb *ir.ProgBuilder, worker string, nthreads int, check func(b *ir.FB)) {
	b := pb.Func("main", 0)
	tids := make([]ir.Reg, nthreads)
	for i := 0; i < nthreads; i++ {
		tids[i] = b.Spawn(worker, b.Const(int64(i)))
	}
	for _, tid := range tids {
		b.Join(tid)
	}
	if check != nil {
		check(b)
	}
	b.RetVoid()
	pb.SetMain("main")
}

// assertEq emits `assert load(g) == want`.
func assertEq(b *ir.FB, g *ir.Global, want int64, msg string) {
	v := b.Load(g)
	b.Assert(b.Eq(v, b.Const(want)), msg)
}
