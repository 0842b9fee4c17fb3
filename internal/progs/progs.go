// Package progs is the benchmark corpus of the reproduction: ir programs
// standing in for the paper's evaluation subjects. Three families:
//
//   - the nine synchronization primitives of Table II (Chase–Lev and Cilk-5
//     work-stealing deques, CLH and MCS queue locks, the Michael–Scott
//     queue, and the Dekker, Lamport, Peterson and Szymanski mutual
//     exclusion algorithms);
//   - fourteen SPLASH-2-like programs mirroring each benchmark's
//     synchronization idioms (sense-reversing barriers, spin locks, ad-hoc
//     flag synchronization) and data-access shape (stencils, indirect
//     indexing, pointer-chasing tree walks), since the original sources
//     cannot be compiled without LLVM and libc;
//   - the three lock-free programs of Table III (Canneal-like annealing via
//     atomic swaps, Matrix on a Michael–Scott queue, SpanningTree on a
//     work-stealing queue).
//
// Every program is self-checking: main spawns the workers, joins them and
// asserts a result invariant, so the TSO simulator can validate fence
// placements dynamically. Synchronization is written inline inside the
// functions that use it (as macro-expanded PARMACS or inlined lock code
// would be after -O2), matching the paper's intraprocedural detection
// assumption.
package progs

import (
	"fmt"
	"sort"

	"fenceplace/internal/ir"
)

// Kind is the corpus family of a program.
type Kind int

const (
	// SyncKernel is a Table II synchronization primitive.
	SyncKernel Kind = iota
	// Splash is a SPLASH-2-like benchmark.
	Splash
	// LockFree is a Table III lock-free program.
	LockFree
	// Extra is outside the paper's evaluation set: hand-built originals
	// for the real-Go frontend's differential twins (testdata/gosource).
	Extra
)

func (k Kind) String() string {
	switch k {
	case SyncKernel:
		return "kernel"
	case Splash:
		return "splash"
	case LockFree:
		return "lockfree"
	case Extra:
		return "extra"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Params sizes a program instantiation.
type Params struct {
	Threads int   // worker threads (the paper ran 64; tests use fewer)
	Size    int64 // problem-size knob, program-specific meaning
	// Manual includes the expert-placed fences in the program text — the
	// paper's §5.3 manual baseline. The analysis variants run on the
	// unfenced (legacy) build.
	Manual bool
}

// Meta describes one corpus program.
type Meta struct {
	Name   string
	Kind   Kind
	Source string // citation for the synchronization pattern
	Desc   string
	// ManualFences is the paper's §5.3 expert fence count where reported
	// (Canneal 10, FMM 6, Volrend 2, Matrix 6, SpanningTree 5); 0 = not
	// reported. The manual baseline uses the fences written in the program
	// text itself.
	ManualFences int
	// Table2 records the paper's Table II expectation for sync kernels.
	Table2 *Table2Row
	// Build instantiates the program at the given size.
	Build func(p Params) *ir.Program
	// Defaults are the parameters used by tests and the experiment
	// harness when none are supplied.
	Defaults Params
	// NeedsWRFence marks programs whose synchronization is
	// flag-and-check mutual exclusion (Dekker family): they are
	// incorrect on TSO without w→r fences, which gives the dynamic
	// validation its teeth.
	NeedsWRFence bool
}

// Table2Row is the expected signature breakdown for a Table II kernel.
type Table2Row struct {
	Addr, Ctrl, PureAddr bool
}

// Default instantiates the program at its default parameters.
func (m *Meta) Default() *ir.Program { return m.Build(m.Defaults) }

// CertParams returns the reduced instantiation exhaustive certification
// uses, so the model checker closes the state space: threads workers
// (2 when threads <= 0) and the given problem size, or the default size
// capped at 2 when size <= 0.
func (m *Meta) CertParams(threads int, size int64) Params {
	p := m.Defaults
	p.Threads = 2
	if threads > 0 {
		p.Threads = threads
	}
	if size > 0 {
		p.Size = size
	} else if p.Size > 2 {
		p.Size = 2
	}
	return p
}

var registry = map[string]*Meta{}
var order []string

func register(m *Meta) *Meta {
	if _, dup := registry[m.Name]; dup {
		panic("progs: duplicate program " + m.Name)
	}
	registry[m.Name] = m
	order = append(order, m.Name)
	return m
}

// All returns every corpus program in registration order.
func All() []*Meta {
	out := make([]*Meta, 0, len(order))
	for _, n := range order {
		out = append(out, registry[n])
	}
	return out
}

// ByKind returns the corpus programs of one family, in registration order.
func ByKind(k Kind) []*Meta {
	var out []*Meta
	for _, m := range All() {
		if m.Kind == k {
			out = append(out, m)
		}
	}
	return out
}

// ByName looks a program up; nil if absent.
func ByName(name string) *Meta { return registry[name] }

// Names returns all program names, sorted.
func Names() []string {
	out := append([]string(nil), order...)
	sort.Strings(out)
	return out
}

// EvalSet returns the programs of the paper's Figures 7-10: the SPLASH-2
// set followed by the lock-free set, in the paper's display order.
func EvalSet() []*Meta {
	var out []*Meta
	out = append(out, ByKind(Splash)...)
	out = append(out, ByKind(LockFree)...)
	return out
}
