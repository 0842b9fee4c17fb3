// Package fence implements the locally-optimized fence minimization of Fang
// et al. [2003] as the paper's Section 4.4 uses it, plus the x86-TSO
// lowering policy (full MFENCE only for w→r orderings; zero-cost compiler
// barriers for everything else) and the paper's modification of placing a
// function-entry fence only when the function contains synchronization
// reads.
//
// The core reduction: an ordering u→v is enforced by any fence that lies on
// every control-flow path from u to v. Anchoring each ordering in its
// source block — a fence anywhere between u and the end of u's block is on
// every such path — turns the problem into one minimum-point interval
// stabbing per basic block, which the classic greedy (sort by right
// endpoint, stab at the right end of the first uncovered interval) solves
// optimally per block. This is precisely the "locally optimized" scheme:
// optimal within a block, conservative across blocks.
package fence

import (
	"fmt"
	"sort"
	"strings"

	"fenceplace/internal/ir"
	"fenceplace/internal/orders"
)

// Placement is one fence to be inserted at a gap of a block: gap g lies
// immediately before instruction index g.
type Placement struct {
	Block *ir.Block
	Gap   int
	Kind  ir.FenceKind
}

// Options configures minimization.
type Options struct {
	// NeedFull decides whether an ordering requires a full hardware fence
	// (as opposed to a compiler barrier). For x86-TSO use
	// orders.NeedsFullFenceTSO.
	NeedFull func(orders.Ordering) bool
	// EntryFence decides whether fn gets a full fence at its entry, the
	// mechanism Pensieve uses for interprocedural orderings. The paper's
	// variants pass "fn contains a sync read"; the Pensieve baseline passes
	// "fn contains an escaping read".
	EntryFence func(fn *ir.Fn) bool
}

// Plan is the result of minimization: the placements per function plus
// which functions receive entry fences.
type Plan struct {
	Prog       *ir.Program
	Placements []Placement
	EntryFns   []*ir.Fn
}

// FullFences counts planned full fences, including entry fences.
func (p *Plan) FullFences() int {
	n := len(p.EntryFns)
	for _, pl := range p.Placements {
		if pl.Kind == ir.FenceFull {
			n++
		}
	}
	return n
}

// CompilerBarriers counts planned compiler-only barriers.
func (p *Plan) CompilerBarriers() int {
	n := 0
	for _, pl := range p.Placements {
		if pl.Kind == ir.FenceCompiler {
			n++
		}
	}
	return n
}

// interval is a stabbing interval over the gaps of one block: some gap in
// [lo, hi] must hold a fence.
type interval struct {
	lo, hi int
}

// anchor reduces an ordering to its source-block interval. For a same-block
// forward pair the fence must sit strictly after u and at-or-before v; for
// everything else (cross-block paths and loop-carried pairs) a fence
// between u and its block's terminator is on every path from u onward.
func anchor(o orders.Ordering) (blk *ir.Block, iv interval) {
	u, v := o.From, o.To
	ub := u.Block()
	if v.Block() == ub && u.Pos() < v.Pos() {
		return ub, interval{u.Pos() + 1, v.Pos()}
	}
	return ub, interval{u.Pos() + 1, len(ub.Instrs) - 1}
}

// Minimize computes a minimal (per the locally-optimized scheme) set of
// fence placements enforcing every ordering in the set.
func Minimize(set *orders.Set, opts Options) *Plan {
	if opts.NeedFull == nil {
		opts.NeedFull = orders.NeedsFullFenceTSO
	}
	plan := &Plan{Prog: set.Prog}

	// Deterministic function order: iterate program order, not map order.
	for _, f := range set.Prog.Funcs {
		list, ok := set.ByFn[f]
		if !ok {
			continue
		}
		fullIVs := make(map[*ir.Block][]interval)
		softIVs := make(map[*ir.Block][]interval)
		for _, o := range list {
			blk, iv := anchor(o)
			if opts.NeedFull(o) {
				fullIVs[blk] = append(fullIVs[blk], iv)
			} else {
				softIVs[blk] = append(softIVs[blk], iv)
			}
		}
		// Blocks in function order for determinism.
		for _, blk := range f.Blocks {
			fullGaps := stab(fullIVs[blk], nil)
			for _, g := range fullGaps {
				plan.Placements = append(plan.Placements, Placement{blk, g, ir.FenceFull})
			}
			// A full fence also serves as a compiler barrier: intervals
			// already stabbed by a full gap need nothing further.
			softGaps := stab(softIVs[blk], fullGaps)
			for _, g := range softGaps {
				plan.Placements = append(plan.Placements, Placement{blk, g, ir.FenceCompiler})
			}
		}
	}
	if opts.EntryFence != nil {
		for _, f := range set.Prog.Funcs {
			if opts.EntryFence(f) {
				plan.EntryFns = append(plan.EntryFns, f)
			}
		}
	}
	return plan
}

// stab solves minimum point cover for the intervals, treating the gaps in
// pre as already-placed points. Returns the chosen gaps in ascending order.
func stab(ivs []interval, pre []int) []int {
	if len(ivs) == 0 {
		return nil
	}
	preSet := make(map[int]bool, len(pre))
	for _, g := range pre {
		preSet[g] = true
	}
	remaining := ivs[:0:0]
	for _, iv := range ivs {
		covered := false
		for g := range preSet {
			if iv.lo <= g && g <= iv.hi {
				covered = true
				break
			}
		}
		if !covered {
			remaining = append(remaining, iv)
		}
	}
	sort.Slice(remaining, func(i, j int) bool {
		if remaining[i].hi != remaining[j].hi {
			return remaining[i].hi < remaining[j].hi
		}
		return remaining[i].lo < remaining[j].lo
	})
	var points []int
	last := -1
	for _, iv := range remaining {
		if last >= iv.lo && last <= iv.hi {
			continue
		}
		last = iv.hi
		points = append(points, last)
	}
	return points
}

// Apply inserts the planned fences into a clone of the program, leaving the
// analyzed program untouched. It returns the instrumented clone and the
// instruction correspondence map (original → clone), which callers use to
// re-locate analysis results (e.g. for verification) in the clone.
func (p *Plan) Apply() (*ir.Program, map[*ir.Instr]*ir.Instr) {
	clone, imap, bmap := p.Prog.Clone()
	// Group placements per clone block, insert from the highest gap down so
	// earlier indices stay valid.
	byBlock := make(map[*ir.Block][]Placement)
	for _, pl := range p.Placements {
		nb := bmap[pl.Block]
		byBlock[nb] = append(byBlock[nb], Placement{nb, pl.Gap, pl.Kind})
	}
	for nb, pls := range byBlock {
		sort.Slice(pls, func(i, j int) bool { return pls[i].Gap > pls[j].Gap })
		for _, pl := range pls {
			nb.Insert(pl.Gap, &ir.Instr{Kind: ir.Fence, Imm: int64(pl.Kind), Synthetic: true})
		}
	}
	for _, f := range p.EntryFns {
		entry := bmap[f.Entry()]
		entry.Insert(0, &ir.Instr{Kind: ir.Fence, Imm: int64(ir.FenceFull), Synthetic: true})
	}
	clone.Finalize()
	return clone, imap
}

// CoverageError reports the first ordering Verify found un-enforced, with
// enough context for a caller to locate the gap in the instrumented
// program: the analyzed ordering, its endpoints mapped through the
// instruction correspondence map, and the fences present in the offending
// function.
type CoverageError struct {
	Fn       *ir.Fn          // analyzed function containing the ordering
	Ord      orders.Ordering // the uncovered ordering (analyzed instructions)
	From, To *ir.Instr       // the endpoints in the instrumented program
	NeedFull bool            // whether a full fence was required on the path
	Fences   []*ir.Instr     // the fences present in the instrumented function
}

func (e *CoverageError) Error() string {
	strength := "compiler barrier"
	if e.NeedFull {
		strength = "full fence"
	}
	return fmt.Sprintf(
		"fence: uncovered %s ordering in %s: [%s] -> [%s] (instrumented %s/%s#%d -> %s/%s#%d, %s required, %d fences in function)",
		e.Ord.Type, e.Fn.Name, e.Ord.From, e.Ord.To,
		e.Fn.Name, e.From.Block().Name, e.From.Pos(),
		e.Fn.Name, e.To.Block().Name, e.To.Pos(),
		strength, len(e.Fences))
}

// Verify checks, on an instrumented program, that every ordering is
// enforced: no control-flow path from the (cloned) source to the (cloned)
// destination avoids a fence of sufficient strength. It returns a
// *CoverageError describing the first uncovered ordering found, or nil.
//
// imap maps analyzed instructions to their clones (as returned by Apply).
func Verify(set *orders.Set, opts Options, instr *ir.Program, imap map[*ir.Instr]*ir.Instr) error {
	if opts.NeedFull == nil {
		opts.NeedFull = orders.NeedsFullFenceTSO
	}
	var search pathSearch
	for _, f := range set.Prog.Funcs {
		for _, o := range set.ByFn[f] {
			u, v := imap[o.From], imap[o.To]
			if u == nil || v == nil {
				return fmt.Errorf("fence: ordering endpoints not mapped into instrumented program")
			}
			needFull := opts.NeedFull(o)
			if search.unfencedPathExists(u, v, needFull) {
				nf := instr.Fn(f.Name)
				var fences []*ir.Instr
				if nf != nil {
					nf.Instrs(func(in *ir.Instr) {
						if in.Kind == ir.Fence {
							fences = append(fences, in)
						}
					})
				}
				return &CoverageError{
					Fn: f, Ord: o, From: u, To: v,
					NeedFull: needFull, Fences: fences,
				}
			}
		}
	}
	return nil
}

// pathSearch is unfencedPathExists's scratch state, reused across the
// orderings of one Verify call so the search allocates only when a
// function has more blocks than any before it.
type pathSearch struct {
	entered []bool      // by Block.ID(): blocks already scanned from index 0
	stack   []*ir.Block // blocks entered but not yet scanned
}

// unfencedPathExists reports whether a path from just after u to just
// before v crosses no fence of sufficient strength. needFull=true requires
// a full fence to block the path; otherwise any fence (full or compiler)
// blocks it.
//
// A path is a straight run of instructions inside a block, so the search
// scans whole blocks: u's block from u.Pos()+1, then each successor block
// from index 0, at most once each. u's block is not marked entered by the
// first, partial scan: a loop back into it starts at index 0 and can reach
// a v at or before u (loop-carried orderings, including u == v).
func (s *pathSearch) unfencedPathExists(u, v *ir.Instr, needFull bool) bool {
	n := len(u.Block().Fn().Blocks)
	if cap(s.entered) < n {
		s.entered = make([]bool, n)
	}
	s.entered = s.entered[:n]
	clear(s.entered)
	s.stack = s.stack[:0]

	b, from := u.Block(), u.Pos()+1
	for {
		reached, t := scanBlock(b, from, v, needFull)
		if reached {
			return true
		}
		if t != nil && (t.Kind == ir.Br || t.Kind == ir.Jmp) {
			s.enter(t.Then)
			if t.Kind == ir.Br {
				s.enter(t.Else)
			}
		}
		if len(s.stack) == 0 {
			return false
		}
		b, from = s.stack[len(s.stack)-1], 0
		s.stack = s.stack[:len(s.stack)-1]
	}
}

// enter queues b for a scan from index 0 unless it already had one.
func (s *pathSearch) enter(b *ir.Block) {
	if !s.entered[b.ID()] {
		s.entered[b.ID()] = true
		s.stack = append(s.stack, b)
	}
}

// scanBlock walks b from index from. It reports whether the walk arrives
// at v (before v itself is examined); otherwise it returns the terminator
// it reached, through which the path continues, or nil when a fence of
// sufficient strength blocked it.
func scanBlock(b *ir.Block, from int, v *ir.Instr, needFull bool) (reached bool, term *ir.Instr) {
	for _, in := range b.Instrs[from:] {
		if in == v {
			return true, nil
		}
		if in.Kind == ir.Fence && (!needFull || ir.FenceKind(in.Imm) == ir.FenceFull) {
			return false, nil
		}
		if in.IsTerminator() {
			return false, in
		}
	}
	return false, nil // fell off an unterminated block (cannot happen on valid IR)
}

// Describe renders the plan for human inspection (CLI and tests).
func (p *Plan) Describe() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan for %s: %d full fences, %d compiler barriers, %d entry fences\n",
		p.Prog.Name, p.FullFences()-len(p.EntryFns), p.CompilerBarriers(), len(p.EntryFns))
	for _, pl := range p.Placements {
		fmt.Fprintf(&sb, "  %s/%s gap %d: %s\n", pl.Block.Fn().Name, pl.Block.Name, pl.Gap, pl.Kind)
	}
	for _, f := range p.EntryFns {
		fmt.Fprintf(&sb, "  %s/entry: full (entry fence)\n", f.Name)
	}
	return sb.String()
}
