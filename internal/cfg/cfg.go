// Package cfg provides control-flow-graph queries over ir functions:
// successor/predecessor maps, reverse postorder, and — the workhorse of
// Pensieve-style ordering generation (paper §4.3) — a reachability lookup
// table answering "can access v occur after access u on some execution
// path?" — plus the register liveness the model checker's state encoding
// runs on and the retreating branches its reduction must keep.
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
	g.rpo = reversePostorder(fn)
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

// reversePostorder returns the blocks reachable from fn's entry in the
// reverse postorder of a depth-first search that visits successors in
// Succs order.
func reversePostorder(fn *ir.Fn) []*ir.Block {
	seen := make([]bool, len(fn.Blocks))
	var post []*ir.Block
	var dfs func(b *ir.Block)
	dfs = func(b *ir.Block) {
		if seen[b.ID()] {
			return
		}
		seen[b.ID()] = true
		for _, s := range b.Succs() {
			dfs(s)
		}
		post = append(post, b)
	}
	dfs(fn.Entry())
	slices.Reverse(post)
	return post
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

// LiveRegs runs a backward liveness analysis over fn (ir.Instr.Uses and
// Def, ir.Block.Succs) and returns, for every instruction, the registers
// live on entry to it: those that some path from that point reads before
// writing. The result is indexed [block ID][instruction index], and each
// list is in ascending register order. Any other register's value cannot
// influence any future of the executing frame, which is what lets the
// model checker leave it out of its state encoding without changing the
// reachable outcomes.
func LiveRegs(fn *ir.Fn) [][][]ir.Reg {
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
	// The lists are windows of one backing array, cut once it has stopped
	// growing, so the table costs a fixed handful of allocations per
	// function. spans[k] bounds the list of the k-th instruction in block
	// order.
	var flat []ir.Reg
	spans := make([][2]int, fn.NumInstrs())
	k := 0
	for _, b := range fn.Blocks {
		liveOut(b)
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			transfer(b.Instrs[i])
			start := len(flat)
			for r, l := range live {
				if l {
					flat = append(flat, ir.Reg(r))
				}
			}
			spans[k+i] = [2]int{start, len(flat)}
		}
		k += len(b.Instrs)
	}
	lists := make([][]ir.Reg, len(spans))
	for k, sp := range spans {
		lists[k] = flat[sp[0]:sp[1]:sp[1]]
	}
	table := make([][][]ir.Reg, len(fn.Blocks))
	for bi, b := range fn.Blocks {
		table[bi], lists = lists[:len(b.Instrs)], lists[len(b.Instrs):]
	}
	return table
}

// RetreatingBlocks reports, for every block of fn indexed by block ID,
// whether it has a retreating successor: one at or before it in reverse
// postorder (RPO). Along the tree, forward and cross edges of the
// depth-first search behind RPO the RPO index strictly increases, so
// every closed walk of the CFG, reducible or not, takes a retreating
// edge; the model checker may therefore merge a branch out of any other
// block into the step before it without losing a cycle's stored state.
// Blocks unreachable from the entry never execute and are reported
// retreating, the conservative answer.
func RetreatingBlocks(fn *ir.Fn) []bool {
	pos := make([]int, len(fn.Blocks))
	for i := range pos {
		pos[i] = -1
	}
	for i, b := range reversePostorder(fn) {
		pos[b.ID()] = i
	}
	retreat := make([]bool, len(fn.Blocks))
	for _, b := range fn.Blocks {
		i := pos[b.ID()]
		retreat[b.ID()] = i < 0
		for _, s := range b.Succs() {
			if pos[s.ID()] <= i {
				retreat[b.ID()] = true
			}
		}
	}
	return retreat
}
