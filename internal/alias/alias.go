// Package alias implements a whole-program, flow-insensitive,
// field-insensitive, inclusion-based (Andersen-style) points-to analysis
// over the ir. It plays the role of the LLVM alias analysis the paper's
// implementation leans on: the backwards slicer consults PotentialWriters
// (Listing 2, line 17) and the ordering generator consults MayAlias.
//
// Abstract locations are: one per Global (an array is a single location —
// field-insensitive), one per Alloca site and one per Malloc site. Pointer
// values are tracked through Move/Gep/BinOp/Call/Spawn/Ret and through
// memory (one contents set per location). The analysis is conservative in
// the usual directions: unknown pointers alias everything, arithmetic
// propagates pointees, and a location's contents are merged over all its
// cells.
package alias

import (
	"fmt"
	"sort"

	"fenceplace/internal/ir"
)

// LocKind distinguishes the three families of abstract memory locations.
type LocKind uint8

const (
	// GlobalLoc is a named shared Global (scalar or whole array).
	GlobalLoc LocKind = iota
	// AllocaLoc is the block of words created by one alloca site.
	AllocaLoc
	// MallocLoc is the block of words created by one malloc site.
	MallocLoc
)

func (k LocKind) String() string {
	switch k {
	case GlobalLoc:
		return "global"
	case AllocaLoc:
		return "alloca"
	case MallocLoc:
		return "malloc"
	}
	return fmt.Sprintf("lockind(%d)", uint8(k))
}

// Loc is an abstract memory location.
type Loc struct {
	Kind LocKind
	G    *ir.Global // for GlobalLoc
	Site *ir.Instr  // for AllocaLoc / MallocLoc
	id   int
}

// ID returns the location's dense index, stable within one Analysis.
func (l *Loc) ID() int { return l.id }

func (l *Loc) String() string {
	switch l.Kind {
	case GlobalLoc:
		return "global:" + l.G.Name
	case AllocaLoc:
		return fmt.Sprintf("alloca:%s@%s#%d", l.Site.Block().Fn().Name, l.Site.Block().Name, l.Site.Pos())
	case MallocLoc:
		return fmt.Sprintf("malloc:%s@%s#%d", l.Site.Block().Fn().Name, l.Site.Block().Name, l.Site.Pos())
	}
	return "loc:?"
}

// locset is a small sparse set of location IDs.
type locset map[int]struct{}

func (s locset) add(id int) bool {
	if _, ok := s[id]; ok {
		return false
	}
	s[id] = struct{}{}
	return true
}

// Analysis holds the solved points-to relation for one program.
type Analysis struct {
	prog *ir.Program
	locs []*Loc

	globalLoc map[*ir.Global]*Loc
	siteLoc   map[*ir.Instr]*Loc

	regBase map[*ir.Fn]int // varID of (fn, reg0)
	nVars   int

	pts      []locset // var id -> pointees
	contents []locset // loc id -> pointees stored in it

	// Access location sets, precomputed after the solve so every query on
	// a finished Analysis is a read-only lookup (concurrent passes share
	// one Analysis without synchronization). accLocs holds the sorted
	// may-touch set per access; accSet the same set keyed for O(1)
	// membership; accKnown is false for statically unknown targets.
	accLocs  map[*ir.Instr][]*Loc
	accSet   map[*ir.Instr]locset
	accKnown map[*ir.Instr]bool
}

// Analyze runs the points-to analysis to fixpoint. The program must have
// been finalized.
func Analyze(p *ir.Program) *Analysis {
	a := &Analysis{
		prog:      p,
		globalLoc: make(map[*ir.Global]*Loc),
		siteLoc:   make(map[*ir.Instr]*Loc),
		regBase:   make(map[*ir.Fn]int),
	}
	for _, g := range p.Globals {
		l := &Loc{Kind: GlobalLoc, G: g, id: len(a.locs)}
		a.locs = append(a.locs, l)
		a.globalLoc[g] = l
	}
	for _, f := range p.Funcs {
		a.regBase[f] = a.nVars
		a.nVars += f.NRegs
		f.Instrs(func(in *ir.Instr) {
			switch in.Kind {
			case ir.Alloca:
				l := &Loc{Kind: AllocaLoc, Site: in, id: len(a.locs)}
				a.locs = append(a.locs, l)
				a.siteLoc[in] = l
			case ir.Malloc:
				l := &Loc{Kind: MallocLoc, Site: in, id: len(a.locs)}
				a.locs = append(a.locs, l)
				a.siteLoc[in] = l
			}
		})
	}
	a.pts = make([]locset, a.nVars)
	for i := range a.pts {
		a.pts[i] = locset{}
	}
	a.contents = make([]locset, len(a.locs))
	for i := range a.contents {
		a.contents[i] = locset{}
	}
	a.solve()
	a.indexAccesses()
	return a
}

// indexAccesses materializes the may-touch set of every memory access once
// the points-to relation is stable. MayAlias and PotentialWriters are the
// slicer's inner loop; resolving them to set lookups here keeps the hot
// path allocation-free and leaves the Analysis immutable afterwards.
func (a *Analysis) indexAccesses() {
	a.accLocs = make(map[*ir.Instr][]*Loc)
	a.accSet = make(map[*ir.Instr]locset)
	a.accKnown = make(map[*ir.Instr]bool)
	for _, f := range a.prog.Funcs {
		f.Instrs(func(in *ir.Instr) {
			if !in.IsAccess() {
				return
			}
			var set locset
			switch in.Kind {
			case ir.Load, ir.Store:
				set = locset{a.globalLoc[in.G].id: struct{}{}}
			case ir.LoadPtr, ir.StorePtr, ir.CAS, ir.FetchAdd:
				set = a.pts[a.varID(f, in.Addr)]
				if len(set) == 0 {
					a.accKnown[in] = false
					return
				}
			default:
				return
			}
			locs := make([]*Loc, 0, len(set))
			for id := range set {
				locs = append(locs, a.locs[id])
			}
			sort.Slice(locs, func(i, j int) bool { return locs[i].id < locs[j].id })
			a.accLocs[in] = locs
			a.accSet[in] = set
			a.accKnown[in] = true
		})
	}
}

func (a *Analysis) varID(f *ir.Fn, r ir.Reg) int {
	return a.regBase[f] + int(r)
}

// solve iterates the inclusion constraints to a fixpoint. The constraint
// set is small (corpus functions have tens to hundreds of instructions), so
// a simple "repeat until no change" sweep is clear and fast enough.
func (a *Analysis) solve() {
	for changed := true; changed; {
		changed = false
		for _, f := range a.prog.Funcs {
			f.Instrs(func(in *ir.Instr) {
				if a.apply(f, in) {
					changed = true
				}
			})
		}
	}
}

// copyInto merges src into dst, reporting change.
func copyInto(dst, src locset) bool {
	changed := false
	for id := range src {
		if dst.add(id) {
			changed = true
		}
	}
	return changed
}

func (a *Analysis) apply(f *ir.Fn, in *ir.Instr) bool {
	changed := false
	ptsOf := func(r ir.Reg) locset { return a.pts[a.varID(f, r)] }
	switch in.Kind {
	case ir.AddrOf:
		if a.pts[a.varID(f, in.Dst)].add(a.globalLoc[in.G].id) {
			changed = true
		}
	case ir.Alloca, ir.Malloc:
		if a.pts[a.varID(f, in.Dst)].add(a.siteLoc[in].id) {
			changed = true
		}
	case ir.Move:
		changed = copyInto(ptsOf(in.Dst), ptsOf(in.A))
	case ir.Gep:
		// Address arithmetic: either operand may carry the pointer; the
		// result points wherever they do (field-insensitive).
		changed = copyInto(ptsOf(in.Dst), ptsOf(in.A))
		if copyInto(ptsOf(in.Dst), ptsOf(in.B)) {
			changed = true
		}
	case ir.BinOp:
		// Pointers may be laundered through arithmetic; stay conservative.
		changed = copyInto(ptsOf(in.Dst), ptsOf(in.A))
		if copyInto(ptsOf(in.Dst), ptsOf(in.B)) {
			changed = true
		}
	case ir.Load:
		changed = copyInto(ptsOf(in.Dst), a.contents[a.globalLoc[in.G].id])
	case ir.Store:
		changed = copyInto(a.contents[a.globalLoc[in.G].id], ptsOf(in.A))
	case ir.LoadPtr:
		for id := range ptsOf(in.Addr) {
			if copyInto(ptsOf(in.Dst), a.contents[id]) {
				changed = true
			}
		}
	case ir.StorePtr:
		for id := range ptsOf(in.Addr) {
			if copyInto(a.contents[id], ptsOf(in.A)) {
				changed = true
			}
		}
	case ir.CAS:
		// The stored value is B; the result is a flag (no pointer flow out).
		for id := range ptsOf(in.Addr) {
			if copyInto(a.contents[id], ptsOf(in.B)) {
				changed = true
			}
		}
	case ir.FetchAdd:
		// Old value flows out; the delta flows in (conservatively).
		for id := range ptsOf(in.Addr) {
			if copyInto(ptsOf(in.Dst), a.contents[id]) {
				changed = true
			}
			if copyInto(a.contents[id], ptsOf(in.A)) {
				changed = true
			}
		}
	case ir.Call, ir.Spawn:
		callee := a.prog.Fn(in.Callee)
		for i, arg := range in.Args {
			if copyInto(a.pts[a.varID(callee, ir.Reg(i))], ptsOf(arg)) {
				changed = true
			}
		}
		if in.Kind == ir.Call && in.Dst != ir.NoReg {
			// Return flow: every `ret r` in the callee feeds the call result.
			callee.Instrs(func(ci *ir.Instr) {
				if ci.Kind == ir.Ret && ci.A != ir.NoReg {
					if copyInto(ptsOf(in.Dst), a.pts[a.varID(callee, ci.A)]) {
						changed = true
					}
				}
			})
		}
	}
	return changed
}

// Locs returns all abstract locations, ordered by ID.
func (a *Analysis) Locs() []*Loc { return a.locs }

// GlobalLocOf returns the location modeling global g.
func (a *Analysis) GlobalLocOf(g *ir.Global) *Loc { return a.globalLoc[g] }

// PointsTo returns the locations register r of fn may point to, ordered by
// location ID.
func (a *Analysis) PointsTo(f *ir.Fn, r ir.Reg) []*Loc {
	set := a.pts[a.varID(f, r)]
	out := make([]*Loc, 0, len(set))
	for id := range set {
		out = append(out, a.locs[id])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// Contents returns the locations that may be stored inside l.
func (a *Analysis) Contents(l *Loc) []*Loc {
	set := a.contents[l.id]
	out := make([]*Loc, 0, len(set))
	for id := range set {
		out = append(out, a.locs[id])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

// AccessLocs returns the abstract locations a memory access may touch. The
// second result is false when the target is statically unknown (an empty
// points-to set on a pointer access), in which case the access must be
// assumed to touch anything.
func (a *Analysis) AccessLocs(in *ir.Instr) ([]*Loc, bool) {
	if known, ok := a.accKnown[in]; ok {
		return a.accLocs[in], known
	}
	return nil, true
}

// MayAlias reports whether two memory accesses may touch a common location.
// Accesses with statically unknown targets alias everything.
func (a *Analysis) MayAlias(u, v *ir.Instr) bool {
	if known, ok := a.accKnown[u]; ok && !known {
		return true
	}
	if known, ok := a.accKnown[v]; ok && !known {
		return true
	}
	su, sv := a.accSet[u], a.accSet[v]
	if len(su) > len(sv) {
		su, sv = sv, su
	}
	for id := range su {
		if _, ok := sv[id]; ok {
			return true
		}
	}
	return false
}

// PotentialWriters returns, in program order, the store-kind instructions in
// fn that may have written the location read by the given load-kind
// instruction — the slicer's "potential_writers" (Listing 2).
func (a *Analysis) PotentialWriters(f *ir.Fn, load *ir.Instr) []*ir.Instr {
	if !load.ReadsMem() {
		return nil
	}
	var out []*ir.Instr
	f.Instrs(func(in *ir.Instr) {
		if in == load || !in.WritesMem() {
			return
		}
		if a.MayAlias(load, in) {
			out = append(out, in)
		}
	})
	return out
}
