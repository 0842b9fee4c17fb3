package progs

import "fenceplace/internal/ir"

// The lock-free programs of the paper's Table III. All three synchronize
// exclusively with user-defined (annotation-free) primitives, which is why
// the paper uses them: Pensieve must fence them heavily, acquire detection
// prunes most of it.

func init() {
	register(&Meta{
		Name: "canneal", Kind: LockFree,
		Source: "Bienia et al., PACT'08 (PARSEC)",
		Desc:   "cache-aware simulated annealing: atomic location swaps via CAS",
		// The paper's canneal carries 10 expert fences for portability to
		// weaker models; on x86-TSO its CAS claims already order everything,
		// so the expert baseline here needs none.
		ManualFences: 0,
		Build:        buildCanneal,
		Defaults:     Params{Threads: 4, Size: 16},
	})
	register(&Meta{
		Name: "matrix", Kind: LockFree,
		Source: "Michael & Scott, PODC'96 (queue)",
		Desc:   "matrix multiplication with work distributed over an MS queue",
		// Paper: 6 expert fences; the MS queue is CAS-synchronized, and a
		// locked RMW is a full barrier on x86-TSO, so no extra fence is
		// needed (the paper's count includes library-atomic fences).
		ManualFences: 0,
		Build:        buildMatrix,
		Defaults:     Params{Threads: 4, Size: 4},
	})
	register(&Meta{
		Name: "spanningtree", Kind: LockFree,
		Source: "Bader & Cong, JPDC'05",
		Desc:   "parallel spanning tree over a work queue with CAS node claims",
		// Paper: 5 expert fences; CAS claims + FIFO publication suffice on
		// x86-TSO, where a locked RMW is a full barrier.
		ManualFences: 0,
		Build:        buildSpanningTree,
		Defaults:     Params{Threads: 4, Size: 16},
	})
}

// --- Canneal -------------------------------------------------------------------

// buildCanneal models canneal's core loop: pick two elements, compute a
// routing-cost delta from their neighbors' positions, and atomically swap
// the elements' locations with CAS claims. The location array is a
// permutation whose sum is invariant — the program's self-check.
func buildCanneal(p Params) *ir.Program {
	n := p.Size
	pb := ir.NewProgram("canneal")
	loc := pb.Global("loc", int(n))         // element -> location (a permutation)
	busy := pb.Global("busy", int(n))       // per-element CAS claim flags
	netlist := pb.Global("netlist", int(n)) // neighbor element per element
	swaps := pb.Global("swaps", 1)
	temperature := pb.Global("temperature", 1)

	w := pb.Func("worker", 1)
	me := w.Param(0)
	one := w.Const(1)
	zero := w.Const(0)
	psw := w.AddrOf(swaps)
	w.ForConst(0, p.Size*2, func(it ir.Reg) {
		// Temperature schedule read: feeds the accept branch.
		temp := w.Load(temperature)
		// Pick a deterministic pseudo-random pair.
		a := w.Mod(w.Add(w.MulImm(it, 7), me), w.Const(n))
		bIdx := w.Mod(w.Add(w.MulImm(it, 13), w.AddImm(me, 3)), w.Const(n))
		w.If(w.Ne(a, bIdx), func() {
			// Claim both elements with CAS (ordered by index to avoid
			// deadlock; here try-lock style: give up on failure).
			pa := w.AddrOfIdx(busy, a)
			okA := w.CAS(pa, zero, one)
			w.If(w.Eq(okA, one), func() {
				pb2 := w.AddrOfIdx(busy, bIdx)
				okB := w.CAS(pb2, zero, one)
				w.If(w.Eq(okB, one), func() {
					// Routing cost delta from the neighbors' locations:
					// netlist reads feed addresses (indirect).
					na := w.LoadIdx(netlist, a)
					nb := w.LoadIdx(netlist, bIdx)
					la := w.LoadIdx(loc, a)
					lb := w.LoadIdx(loc, bIdx)
					lna := w.LoadIdx(loc, na)
					lnb := w.LoadIdx(loc, nb)
					delta := w.Sub(w.Add(w.Sub(la, lna), w.Sub(lb, lnb)),
						w.Add(w.Sub(lb, lna), w.Sub(la, lnb)))
					accept := w.Or(w.Lt(delta, zero), w.Lt(temp, w.Const(4)))
					w.If(accept, func() {
						w.StoreIdx(loc, a, lb)
						w.StoreIdx(loc, bIdx, la)
						w.FetchAdd(psw, one)
					})
					w.StoreIdx(busy, bIdx, zero) // release claims
				})
				w.StoreIdx(busy, a, zero)
			})
		})
	})
	// Cool the schedule (racy by design — the paper's canneal reads the
	// temperature without synchronization too; it only gates a heuristic).
	w.Store(temperature, w.Sub(w.Load(temperature), one))
	dlo, dhi := chunk(w, me, p.Threads, n)
	dilute(pb, w, "cann", loc, netlist, dlo, dhi, n, 5, 4, 3)
	w.RetVoid()

	splashMain(pb, p.Threads, func(b *ir.FB) {
		initRamp(b, loc, n, 0, 1) // identity permutation
		initPerm(b, netlist, n)
	}, func(b *ir.FB) {
		// The locations must still be a permutation: the sum is invariant.
		sum := b.Move(b.Const(0))
		b.ForConst(0, n, func(i ir.Reg) {
			sum = mAdd(b, sum, b.LoadIdx(loc, i))
		})
		b.Assert(b.Eq(sum, b.Const(n*(n-1)/2)), "canneal: swaps preserved the location permutation")
	})
	p2 := pb.MustBuild()
	_ = p2.Fn("main")
	return p2
}

// --- Matrix ---------------------------------------------------------------------

// buildMatrix multiplies two Size x Size matrices, distributing row tasks
// through a Michael-Scott queue (the paper's Matrix program computes both
// products; we compute A*B and verify every cell against a sequential
// recomputation in main).
func buildMatrix(p Params) *ir.Program {
	n := p.Size
	pb := ir.NewProgram("matrix")
	ma := pb.Global("ma", int(n*n))
	mb := pb.Global("mb", int(n*n))
	mc := pb.Global("mc", int(n*n))
	qhead := pb.Global("qhead", 1)
	qtail := pb.Global("qtail", 1)
	donerows := pb.Global("donerows", 1)

	w := pb.Func("worker", 1)
	me := w.Param(0)
	one := w.Const(1)
	zero := w.Const(0)
	phead := w.AddrOf(qhead)
	ptail := w.AddrOf(qtail)
	pdone := w.AddrOf(donerows)
	stop := w.Move(zero)
	w.While(func() ir.Reg { return w.Eq(stop, zero) }, func() {
		// MS-queue dequeue of a row task.
		h := w.Load(qhead)
		t := w.Load(qtail)
		nxt := w.LoadPtr(w.Gep(h, one))
		w.IfElse(w.Eq(h, t), func() {
			w.IfElse(w.Eq(nxt, zero), func() {
				w.MoveTo(stop, one) // queue drained: done
			}, func() {
				w.CAS(ptail, t, nxt)
			})
		}, func() {
			w.If(w.Ne(nxt, zero), func() {
				row := w.LoadPtr(nxt)
				ok := w.CAS(phead, h, nxt)
				w.If(w.Eq(ok, one), func() {
					// Compute row `row` of C = A*B.
					base := w.Mul(row, w.Const(n))
					w.ForConst(0, n, func(j ir.Reg) {
						acc := w.Move(zero)
						w.ForConst(0, n, func(k ir.Reg) {
							av := w.LoadIdx(ma, w.Add(base, k))
							bv := w.LoadIdx(mb, w.Add(w.Mul(k, w.Const(n)), j))
							w.MoveTo(acc, w.Add(acc, w.Mul(av, bv)))
						})
						w.StoreIdx(mc, w.Add(base, j), acc)
					})
					w.FetchAdd(pdone, one)
				})
			})
		})
	})
	dlo, dhi := chunk(w, me, p.Threads, n)
	dilute(pb, w, "mx", ma, nil, dlo, dhi, n, 3, 3, 4)
	w.RetVoid()

	main := pb.Func("main", 0)
	one2 := main.Const(1)
	// Fill A and B with small deterministic values.
	main.ForConst(0, n*n, func(i ir.Reg) {
		main.StoreIdx(ma, i, main.Mod(i, main.Const(5)))
		main.StoreIdx(mb, i, main.Mod(main.MulImm(i, 3), main.Const(7)))
	})
	// Seed the MS queue with one node per row.
	dummy := main.Malloc(2)
	main.Store(qhead, dummy)
	main.Store(qtail, dummy)
	main.ForConst(0, n, func(row ir.Reg) {
		node := main.Malloc(2)
		main.StorePtr(node, row)
		t := main.Load(qtail)
		main.StorePtr(main.Gep(t, one2), node)
		main.Store(qtail, node)
	})
	tids := make([]ir.Reg, p.Threads)
	for i := 0; i < p.Threads; i++ {
		tids[i] = main.Spawn("worker", main.Const(int64(i)))
	}
	for _, tid := range tids {
		main.Join(tid)
	}
	assertEq(main, donerows, n, "matrix: every row computed exactly once")
	// Verify every cell against a sequential recomputation.
	main.ForConst(0, n, func(i ir.Reg) {
		base := main.Mul(i, main.Const(n))
		main.ForConst(0, n, func(j ir.Reg) {
			acc := main.Move(main.Const(0))
			main.ForConst(0, n, func(k ir.Reg) {
				av := main.LoadIdx(ma, main.Add(base, k))
				bv := main.LoadIdx(mb, main.Add(main.Mul(k, main.Const(n)), j))
				main.MoveTo(acc, main.Add(acc, main.Mul(av, bv)))
			})
			got := main.LoadIdx(mc, main.Add(base, j))
			main.Assert(main.Eq(got, acc), "matrix: parallel product matches sequential product")
		})
	})
	main.RetVoid()
	pb.SetMain("main")
	return pb.MustBuild()
}

// --- SpanningTree ------------------------------------------------------------------

// buildSpanningTree grows a spanning tree over a ring-with-chords graph: a
// shared work queue of frontier nodes, CAS claims on the color array, and
// adjacency through index arithmetic. The self-check: every node claimed
// exactly once (the tree spans).
func buildSpanningTree(p Params) *ir.Program {
	n := p.Size
	pb := ir.NewProgram("spanningtree")
	color := pb.Global("color", int(n)) // 0 = unvisited, else owner+1
	parent := pb.Global("parent", int(n))
	queue := pb.Global("queue", int(n*4))   // frontier queue (ample)
	qvalid := pb.Global("qvalid", int(n*4)) // per-slot published flag
	qtail := pb.Global("qtail", 1)          // fetch-add producer cursor
	qhead := pb.Global("qhead", 1)          // CAS-advanced consumer cursor
	visited := pb.Global("visited", 1)

	w := pb.Func("worker", 1)
	me := w.Param(0)
	one := w.Const(1)
	zero := w.Const(0)
	ph := w.AddrOf(qhead)
	pt := w.AddrOf(qtail)
	pv := w.AddrOf(visited)
	idle := w.Move(zero)
	w.While(func() ir.Reg { return w.Lt(idle, w.Const(n*8)) }, func() {
		done := w.Load(visited)
		w.If(w.Ge(done, w.Const(n)), func() {
			w.MoveTo(idle, w.Const(n*8)) // tree complete: fast exit
		})
		head := w.Load(qhead)
		tail := w.Load(qtail)
		w.IfElse(w.Ge(head, tail), func() {
			w.MoveTo(idle, w.Add(idle, one)) // queue looks empty
		}, func() {
			// Claim exactly slot `head` (no overshoot past the tail).
			ok := w.CAS(ph, head, w.Add(head, one))
			w.If(w.Eq(ok, one), func() {
				// Wait for the producer to publish the slot.
				w.SpinWhileNe(qvalid, head, one)
				u := w.LoadIdx(queue, head) // loaded index drives addresses
				// Explore u's two ring neighbors and one chord.
				for _, stride := range []int64{1, n - 1, 3} {
					v := w.Mod(w.Add(u, w.Const(stride)), w.Const(n))
					pc := w.AddrOfIdx(color, v)
					okc := w.CAS(pc, zero, w.AddImm(me, 1))
					w.If(w.Eq(okc, one), func() {
						w.StoreIdx(parent, v, u)
						w.FetchAdd(pv, one)
						spot := w.FetchAdd(pt, one)
						w.StoreIdx(queue, spot, v)
						w.StoreIdx(qvalid, spot, one) // publish after the value
					})
				}
				w.MoveTo(idle, zero)
			})
		})
	})
	weights := pb.Global("weights", int(n)) // read-only edge weights
	dlo, dhi := chunk(w, me, p.Threads, n)
	dilute(pb, w, "st", weights, nil, dlo, dhi, n, 10, 8, 2)
	w.RetVoid()

	splashMain(pb, p.Threads, func(b *ir.FB) {
		// Root node 0: colored by the boot thread, queued once.
		initRamp(b, weights, n, 1, 1)
		b.StoreIdx(color, b.Const(0), b.Const(99))
		b.StoreIdx(queue, b.Const(0), b.Const(0))
		b.StoreIdx(qvalid, b.Const(0), b.Const(1))
		b.Store(qtail, b.Const(1))
		b.Store(visited, b.Const(1))
	}, func(b *ir.FB) {
		assertEq(b, visited, n, "spanningtree: the tree spans every node")
		// Every non-root node has a parent in range.
		b.ForConst(1, n, func(i ir.Reg) {
			c := b.LoadIdx(color, i)
			b.Assert(b.Gt(c, b.Const(0)), "spanningtree: node claimed")
		})
	})
	return pb.MustBuild()
}
