// Package cfg provides control-flow-graph queries over ir functions:
// successor/predecessor maps, reverse postorder, and — the workhorse of
// Pensieve-style ordering generation (paper §4.3) — a reachability lookup
// table answering "can access v occur after access u on some execution
// path?" — plus the register liveness the model checker's dead-register
// reduction runs on.
package cfg

import (
	"slices"

	"fenceplace/internal/ir"
)

// Graph caches CFG structure and reachability for one function. Build one
// with New after the owning program has been finalized.
type Graph struct {
	fn    *ir.Fn
	preds map[*ir.Block][]*ir.Block
	// reach[i][j] reports whether block j is reachable from block i along a
	// path with at least one edge. Blocks are indexed by Block.ID.
	reach [][]bool
	rpo   []*ir.Block
}

// New builds the CFG caches for fn. The function's program must have been
// finalized (block IDs assigned).
func New(fn *ir.Fn) *Graph {
	g := &Graph{fn: fn, preds: make(map[*ir.Block][]*ir.Block, len(fn.Blocks))}
	for _, b := range fn.Blocks {
		for _, s := range b.Succs() {
			g.preds[s] = append(g.preds[s], b)
		}
	}
	g.computeReach()
	g.computeRPO()
	return g
}

// Fn returns the function the graph describes.
func (g *Graph) Fn() *ir.Fn { return g.fn }

// Succs returns the successor blocks of b.
func (g *Graph) Succs(b *ir.Block) []*ir.Block { return b.Succs() }

// Preds returns the predecessor blocks of b.
func (g *Graph) Preds(b *ir.Block) []*ir.Block { return g.preds[b] }

func (g *Graph) computeReach() {
	n := len(g.fn.Blocks)
	g.reach = make([][]bool, n)
	for i := range g.reach {
		g.reach[i] = make([]bool, n)
	}
	// DFS from each block's successors. O(B·E); functions in this module
	// are small (tens of blocks) so this is never the bottleneck.
	for _, b := range g.fn.Blocks {
		stack := append([]*ir.Block(nil), b.Succs()...)
		row := g.reach[b.ID()]
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if row[x.ID()] {
				continue
			}
			row[x.ID()] = true
			stack = append(stack, x.Succs()...)
		}
	}
}

func (g *Graph) computeRPO() {
	seen := make(map[*ir.Block]bool, len(g.fn.Blocks))
	var post []*ir.Block
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs() {
			dfs(s)
		}
		post = append(post, b)
	}
	dfs(g.fn.Entry())
	g.rpo = make([]*ir.Block, 0, len(post))
	for i := len(post) - 1; i >= 0; i-- {
		g.rpo = append(g.rpo, post[i])
	}
}

// RPO returns the blocks reachable from entry in reverse postorder.
func (g *Graph) RPO() []*ir.Block { return g.rpo }

// BlockReaches reports whether dst is reachable from src along a path with
// at least one CFG edge. A block on a cycle reaches itself.
func (g *Graph) BlockReaches(src, dst *ir.Block) bool {
	return g.reach[src.ID()][dst.ID()]
}

// Reachable reports whether b is reachable from the function entry
// (trivially true for the entry itself).
func (g *Graph) Reachable(b *ir.Block) bool {
	e := g.fn.Entry()
	return b == e || g.reach[e.ID()][b.ID()]
}

// CanFollow reports whether instruction v can execute after instruction u on
// some path — the path-existence test of Pensieve's ordering generation.
// Both instructions must belong to this graph's function. If u precedes v in
// the same block the answer is immediate; otherwise a block-level
// reachability query (which accounts for loop back edges, including u == v
// inside a loop) decides.
func (g *Graph) CanFollow(u, v *ir.Instr) bool {
	ub, vb := u.Block(), v.Block()
	if ub == vb && u.Pos() < v.Pos() {
		return true
	}
	return g.BlockReaches(ub, vb)
}

// InLoop reports whether b lies on a CFG cycle.
func (g *Graph) InLoop(b *ir.Block) bool { return g.BlockReaches(b, b) }

// DeadRegs runs a backward liveness analysis over fn (ir.Instr.Uses and
// Def, ir.Block.Succs) and returns, for every instruction, the registers
// dead on entry to it: those that no path from that point reads before
// writing. The result is indexed [block ID][instruction index], and each
// list is in ascending register order. A dead register's value cannot
// influence any future of the executing frame, which is what lets the
// model checker zero it without changing the reachable outcomes.
func DeadRegs(fn *ir.Fn) [][][]ir.Reg {
	n := fn.NRegs
	live := make([]bool, n)
	liveIn := make([]bool, len(fn.Blocks)*n) // block b's set is liveIn[b*n:(b+1)*n]
	// liveOut resets live to the union of b's successors' live-in sets.
	liveOut := func(b *ir.Block) {
		clear(live)
		for _, s := range b.Succs() {
			for r, l := range liveIn[s.ID()*n : (s.ID()+1)*n] {
				live[r] = live[r] || l
			}
		}
	}
	var uses []ir.Reg
	transfer := func(in *ir.Instr) {
		if d := in.Def(); d != ir.NoReg {
			live[d] = false
		}
		uses = in.AppendUses(uses[:0])
		for _, u := range uses {
			live[u] = true
		}
	}
	// Iterate to the least fixpoint. Visiting blocks in reverse order
	// follows the backward flow, so acyclic functions settle in one pass
	// plus the confirming one.
	for changed := true; changed; {
		changed = false
		for bi := len(fn.Blocks) - 1; bi >= 0; bi-- {
			b := fn.Blocks[bi]
			liveOut(b)
			for i := len(b.Instrs) - 1; i >= 0; i-- {
				transfer(b.Instrs[i])
			}
			if in := liveIn[bi*n : (bi+1)*n]; !slices.Equal(live, in) {
				copy(in, live)
				changed = true
			}
		}
	}
	// The lists share one backing array, sized for every register dead
	// everywhere (most are), so the table costs a fixed handful of
	// allocations per function.
	flat := make([]ir.Reg, 0, fn.NumInstrs()*n)
	lists := make([][]ir.Reg, fn.NumInstrs())
	dead := make([][][]ir.Reg, len(fn.Blocks))
	for bi, b := range fn.Blocks {
		dead[bi], lists = lists[:len(b.Instrs)], lists[len(b.Instrs):]
		liveOut(b)
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			transfer(b.Instrs[i])
			start := len(flat)
			for r, l := range live {
				if !l {
					flat = append(flat, ir.Reg(r))
				}
			}
			dead[bi][i] = flat[start:len(flat):len(flat)]
		}
	}
	return dead
}
