// Package orders implements Pensieve-style ordering generation and the
// paper's DRF pruning. Ordering generation (paper §4.3) records an ordering
// u→v for every pair of potentially-escaping accesses in a function with a
// control-flow path from u to v (including loop back edges and u==v inside
// a loop). Pruning (§2.3) then deletes the orderings that Table I does not
// require for a data-race-free program:
//
//	r1→r2 survives only as racq→r  (r1 must be a detected acquire)
//	w→r   survives only as w→racq  (r must be a detected acquire)
//	r→w and w→w always survive     (every escaping write is a release)
package orders

import (
	"fmt"

	"fenceplace/internal/acquire"
	"fenceplace/internal/cfg"
	"fenceplace/internal/escape"
	"fenceplace/internal/ir"
)

// Type classifies an ordering by the memory effects of its endpoints.
// Read-modify-writes count as writes at the source (their store is what a
// successor must wait for) and as reads at the destination.
type Type uint8

const (
	RR Type = iota // read  → read
	RW             // read  → write
	WR             // write → read
	WW             // write → write
	numTypes
)

func (t Type) String() string {
	switch t {
	case RR:
		return "r->r"
	case RW:
		return "r->w"
	case WR:
		return "w->r"
	case WW:
		return "w->w"
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Types lists all ordering types in display order.
var Types = [...]Type{RR, RW, WR, WW}

// Ordering is a required program-order edge between two accesses of one
// function.
type Ordering struct {
	From, To *ir.Instr
	Type     Type
}

func classify(u, v *ir.Instr) Type {
	srcWrite := u.WritesMem()
	dstRead := v.ReadsMem()
	switch {
	case srcWrite && dstRead:
		return WR
	case srcWrite:
		return WW
	case dstRead:
		return RR
	default:
		return RW
	}
}

// isRMW reports whether the instruction is an atomic read-modify-write. On
// x86 these execute with an implicit full barrier (LOCK prefix), so
// orderings that start or end at one never need an extra MFENCE.
func isRMW(in *ir.Instr) bool { return in.Kind == ir.CAS || in.Kind == ir.FetchAdd }

// NeedsFullFenceTSO reports whether the ordering requires a full hardware
// fence on x86-TSO: only w→r is hardware-reorderable, and implicitly-locked
// RMW endpoints already enforce it (paper §4.4: "only orderings of the form
// w→r ... as the other orderings are enforced automatically by hardware").
func NeedsFullFenceTSO(o Ordering) bool {
	return o.Type == WR && !isRMW(o.From) && !isRMW(o.To)
}

// Set is the per-function collection of orderings for one program.
type Set struct {
	Prog  *ir.Program
	ByFn  map[*ir.Fn][]Ordering
	count [numTypes]int
}

// NewSet returns an empty ordering set for the program, to be filled with
// Add. Generate is the sequential convenience; a pass manager generates
// per-function lists in parallel with GenerateFn and assembles them here.
func NewSet(p *ir.Program) *Set {
	return &Set{Prog: p, ByFn: make(map[*ir.Fn][]Ordering, len(p.Funcs))}
}

// Add records a function's ordering list (as produced by GenerateFn) and
// updates the type counts. Empty lists are ignored.
func (s *Set) Add(f *ir.Fn, list []Ordering) {
	if len(list) == 0 {
		return
	}
	s.ByFn[f] = list
	for _, o := range list {
		s.count[o.Type]++
	}
}

// GenerateFn performs Pensieve ordering generation for a single function:
// all ordered pairs of escaping accesses connected by a path in g, which
// must be the CFG of f. It touches no shared state, so any number of
// functions may be generated concurrently.
func GenerateFn(f *ir.Fn, g *cfg.Graph, esc *escape.Result) []Ordering {
	accs := esc.EscapingAccesses(f)
	if len(accs) == 0 {
		return nil
	}
	var list []Ordering
	for _, u := range accs {
		for _, v := range accs {
			if !g.CanFollow(u, v) {
				continue
			}
			list = append(list, Ordering{From: u, To: v, Type: classify(u, v)})
		}
	}
	return list
}

// Generate performs Pensieve ordering generation over every function: all
// ordered pairs of escaping accesses connected by a CFG path.
func Generate(p *ir.Program, esc *escape.Result) *Set {
	s := NewSet(p)
	for _, f := range p.Funcs {
		s.Add(f, GenerateFn(f, cfg.New(f), esc))
	}
	return s
}

// Prune applies the paper's DRF pruning rules using a set of detected
// acquires, returning a new Set (the receiver is unchanged). An ordering
// survives iff Table I requires it:
//
//   - its source is a detected acquire read (racq → anything), or
//   - its destination writes (anything → wrel), or
//   - its source writes and its destination is a detected acquire (wrel → racq).
//
// Everything else — data-read-sourced r→r and w→(non-acquire r) — is pruned.
func (s *Set) Prune(acq *acquire.Result) *Set {
	out := &Set{Prog: s.Prog, ByFn: make(map[*ir.Fn][]Ordering, len(s.ByFn))}
	for f, list := range s.ByFn {
		var kept []Ordering
		for _, o := range list {
			if keep(o, acq) {
				kept = append(kept, o)
				out.count[o.Type]++
			}
		}
		if len(kept) > 0 {
			out.ByFn[f] = kept
		}
	}
	return out
}

func keep(o Ordering, acq *acquire.Result) bool {
	if o.From.ReadsMem() && acq.IsSync(o.From) {
		return true // racq → r/w (Table I, rule 2)
	}
	if o.To.WritesMem() {
		return true // r/w → wrel (Table I, rule 1; all writes are releases)
	}
	// Destination is a pure read.
	if o.From.WritesMem() {
		return acq.IsSync(o.To) // wrel → racq (Table I, rule 3)
	}
	return false // data read → data read
}

// Count returns the number of orderings of the given type.
func (s *Set) Count(t Type) int { return s.count[t] }

// Total returns the number of orderings across all types.
func (s *Set) Total() int {
	n := 0
	for _, c := range s.count {
		n += c
	}
	return n
}
