// Package annotate implements the paper's alternative application (§1.3):
// instead of inserting fences directly, use the detected synchronization
// reads to emit the minimal acquire annotations that would make the legacy
// program data-race-free under an annotation-aware compiler (C11-style
// memory_order_acquire on the flagged loads; every escaping write is
// conservatively a release). It reads the escape analysis and the acquire
// signatures from the analyzer's pass session (internal/passes), so a
// program is analyzed once whether it is annotated, fenced or both.
package annotate

import (
	"fmt"
	"sort"
	"strings"

	"fenceplace/internal/ir"
	"fenceplace/internal/passes"
)

// Kind is the annotation attached to one access.
type Kind int

const (
	// Acquire marks a detected synchronization read.
	Acquire Kind = iota
	// Release marks an escaping write (the conservative release set).
	Release
)

func (k Kind) String() string {
	if k == Acquire {
		return "acquire"
	}
	return "release"
}

// Annotation pins a memory-order annotation to one instruction.
type Annotation struct {
	Fn    *ir.Fn
	Instr *ir.Instr
	Kind  Kind
	// Signature records which acquire signature(s) matched: "control",
	// "address" or "control+address". Empty for releases.
	Signature string
}

// Describe renders the annotation as a human-readable line.
func (a Annotation) Describe() string {
	loc := fmt.Sprintf("%s/%s#%d", a.Fn.Name, a.Instr.Block().Name, a.Instr.Pos())
	if a.Kind == Release {
		return fmt.Sprintf("%-9s %-30s %s", "release", loc, a.Instr)
	}
	return fmt.Sprintf("%-9s %-30s %s  (%s)", "acquire", loc, a.Instr, a.Signature)
}

// Result is the full annotation set for a program.
type Result struct {
	Acquires []Annotation
	Releases []Annotation
}

// Generate computes the minimal annotation set: one acquire per detected
// synchronization read (classified by signature) and one release per
// escaping write. The annotated program is DRF by the paper's Theorem 3.1:
// every read that could be an acquire is annotated.
func Generate(sess *passes.Session) *Result {
	esc, sig := sess.Escape(), sess.Signatures()
	res := &Result{}
	for _, f := range sess.Program().Funcs {
		f.Instrs(func(in *ir.Instr) {
			ctl, adr := sig.Control[in], sig.Address[in]
			if ctl || adr {
				s := "control"
				switch {
				case ctl && adr:
					s = "control+address"
				case adr:
					s = "address"
				}
				res.Acquires = append(res.Acquires, Annotation{Fn: f, Instr: in, Kind: Acquire, Signature: s})
			}
			if in.WritesMem() && esc.AccessEscapes(in) {
				res.Releases = append(res.Releases, Annotation{Fn: f, Instr: in, Kind: Release})
			}
		})
	}
	return res
}

// Report renders the annotation set grouped by function, acquires first.
func (r *Result) Report() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "minimal DRF annotations: %d acquires, %d releases\n", len(r.Acquires), len(r.Releases))
	byFn := map[string][]Annotation{}
	var names []string
	for _, a := range append(append([]Annotation{}, r.Acquires...), r.Releases...) {
		if _, ok := byFn[a.Fn.Name]; !ok {
			names = append(names, a.Fn.Name)
		}
		byFn[a.Fn.Name] = append(byFn[a.Fn.Name], a)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&sb, "func %s:\n", n)
		for _, a := range byFn[n] {
			sb.WriteString("  " + a.Describe() + "\n")
		}
	}
	return sb.String()
}

// PureAddressAcquires returns the acquires that matched only the address
// signature — the paper's empirical study (Table II) expects none in real
// synchronization primitives, so surfacing them is a useful code smell.
func (r *Result) PureAddressAcquires() []Annotation {
	var out []Annotation
	for _, a := range r.Acquires {
		if a.Signature == "address" {
			out = append(out, a)
		}
	}
	return out
}
