// Package acquire implements the paper's two synchronization-read detection
// algorithms: Control (Listing 1 — slice backwards from every conditional
// branch) and Address+Control (Listing 3 — additionally slice from every
// dereference and address calculation). A shared-memory read can only be an
// acquire if it matches at least one of the two signatures (Theorem 3.1),
// so every read these detectors do NOT flag is provably not a
// synchronization read and the orderings involving it may be pruned.
package acquire

import (
	"fmt"

	"fenceplace/internal/alias"
	"fenceplace/internal/escape"
	"fenceplace/internal/ir"
	"fenceplace/internal/slicer"
)

// Variant selects a detection algorithm.
type Variant int

const (
	// Control detects only control acquires (Listing 1).
	Control Variant = iota
	// AddressControl detects control and address acquires (Listing 3).
	AddressControl
	// AddressOnly detects only address acquires; it exists for the
	// Table II signature breakdown, not as a placement variant.
	AddressOnly
)

func (v Variant) String() string {
	switch v {
	case Control:
		return "Control"
	case AddressControl:
		return "Address+Control"
	case AddressOnly:
		return "AddressOnly"
	}
	return fmt.Sprintf("variant(%d)", int(v))
}

// Result is the program-wide set of detected synchronization reads.
type Result struct {
	Variant Variant
	sync    map[*ir.Instr]bool
}

// IsSync reports whether the instruction was flagged as a potential
// synchronization (acquire) read.
func (r *Result) IsSync(in *ir.Instr) bool { return r.sync[in] }

// Count returns the number of flagged reads.
func (r *Result) Count() int { return len(r.sync) }

// SyncReads returns fn's flagged reads in program order.
func (r *Result) SyncReads(f *ir.Fn) []*ir.Instr {
	var out []*ir.Instr
	f.Instrs(func(in *ir.Instr) {
		if r.sync[in] {
			out = append(out, in)
		}
	})
	return out
}

// FnHasSync reports whether any flagged read lives in fn — the condition
// under which the paper's modified minimization places a function-entry
// fence (§4.4).
func (r *Result) FnHasSync(f *ir.Fn) bool {
	found := false
	f.Instrs(func(in *ir.Instr) {
		if r.sync[in] {
			found = true
		}
	})
	return found
}

// NewResult assembles a Result from per-function flagged-read lists, as
// produced by DetectFn. A pass manager detects functions in parallel and
// collects them here.
func NewResult(v Variant, reads ...[]*ir.Instr) *Result {
	res := &Result{Variant: v, sync: make(map[*ir.Instr]bool)}
	for _, list := range reads {
		for _, in := range list {
			res.sync[in] = true
		}
	}
	return res
}

// DetectFn runs the selected variant's slicing over one function, reusing a
// prebuilt def/writer index, and returns the flagged reads in program
// order. The index and escape result are only read, so functions (and
// variants sharing one index) may be detected concurrently.
func DetectFn(f *ir.Fn, ix *slicer.Index, esc *escape.Result, v Variant) []*ir.Instr {
	s := slicer.NewShared(ix, esc)
	f.Instrs(func(in *ir.Instr) {
		for _, root := range rootRegs(in, v) {
			s.SliceFromRegs(root)
		}
	})
	return s.SyncReads()
}

// Detect runs the selected variant over every function of the program.
func Detect(p *ir.Program, al *alias.Analysis, esc *escape.Result, v Variant) *Result {
	lists := make([][]*ir.Instr, 0, len(p.Funcs))
	for _, f := range p.Funcs {
		lists = append(lists, DetectFn(f, slicer.NewIndex(f, al), esc, v))
	}
	return NewResult(v, lists...)
}

// SignaturesOf assembles the Table II signature classification from two
// already-computed detections (Control and AddressOnly), letting a pass
// session reuse its memoized results.
func SignaturesOf(ctl, adr *Result) Signatures {
	return Signatures{Control: ctl.sync, Address: adr.sync}
}

// rootRegs returns the operand registers to slice from for this instruction
// under the given variant: branch predicates for the control signature;
// dereferenced addresses and address-calculation offsets for the address
// signature (Listing 3 slices the offset of a GetElementPtr and the operand
// of a dereference; our indexed Load/Store/AddrOf are implicit address
// calculations whose offset is the index).
func rootRegs(in *ir.Instr, v Variant) []ir.Reg {
	var roots []ir.Reg
	if v == Control || v == AddressControl {
		if in.Kind == ir.Br {
			roots = append(roots, in.A)
		}
	}
	if v == AddressOnly || v == AddressControl {
		switch in.Kind {
		case ir.LoadPtr, ir.StorePtr, ir.CAS, ir.FetchAdd:
			roots = append(roots, in.Addr)
		case ir.Gep:
			roots = append(roots, in.B)
		case ir.AddrOf, ir.Load, ir.Store:
			if in.Idx != ir.NoReg {
				roots = append(roots, in.Idx)
			}
		}
	}
	return roots
}

// Signatures carries the per-read signature classification used by the
// Table II study: which reads match the control signature and which match
// the address signature.
type Signatures struct {
	Control map[*ir.Instr]bool
	Address map[*ir.Instr]bool
}

// HasControl reports whether any read matches the control signature.
func (s Signatures) HasControl() bool { return len(s.Control) > 0 }

// HasAddress reports whether any read matches the address signature.
func (s Signatures) HasAddress() bool { return len(s.Address) > 0 }

// HasPureAddress reports whether some read matches the address signature
// without also matching the control signature — the case the paper's
// empirical study (Table II) finds in none of the nine primitives.
func (s Signatures) HasPureAddress() bool {
	for in := range s.Address {
		if !s.Control[in] {
			return true
		}
	}
	return false
}
