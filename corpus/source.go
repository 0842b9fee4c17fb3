// Package corpus is the public corpus-driver API: a Runner drives the
// named programs of a Source through the fence-placement pipeline
// (analysis, the dynamic experiment, certification) in one process and
// collects one plain-data Row per program into a Report. The Report
// serializes to versioned JSON and renders into the paper's tables. Its
// rows sort by corpus index, so their order never depends on which worker
// finished first. Table rendering is a view over the Report data, never
// the source of truth.
package corpus

import (
	"fenceplace"
	"fenceplace/internal/progs"
)

// Source is an iterator of named programs: the unit the Runner drives.
// Programs are built lazily, when the Runner reaches them.
// Implementations must be safe for concurrent use — the Runner builds
// members from several goroutines.
type Source interface {
	// Label names the source ("eval", "cert-kernels", a program name);
	// reports carry it as provenance.
	Label() string
	// Len is the number of member programs.
	Len() int
	// Name returns member i's program name.
	Name(i int) string
	// Build instantiates member i's legacy (unfenced) build.
	Build(i int) *fenceplace.Program
	// BuildManual instantiates member i's expert build (the paper's §5.3
	// manual baseline), or nil when the member has none.
	BuildManual(i int) *fenceplace.Program
}

// progsSource serves a slice of corpus programs at per-member parameters.
type progsSource struct {
	label  string
	metas  []*progs.Meta
	params func(m *progs.Meta) progs.Params
}

func (s *progsSource) Label() string     { return s.label }
func (s *progsSource) Len() int          { return len(s.metas) }
func (s *progsSource) Name(i int) string { return s.metas[i].Name }

func (s *progsSource) Build(i int) *fenceplace.Program {
	return s.metas[i].Build(s.params(s.metas[i]))
}

func (s *progsSource) BuildManual(i int) *fenceplace.Program {
	p := s.params(s.metas[i])
	p.Manual = true
	return s.metas[i].Build(p)
}

// EvalSource is the paper's Figures 7–10 evaluation set (the SPLASH-2-like
// programs followed by the lock-free ones, in display order) at each
// program's default parameters.
func EvalSource() Source {
	return &progsSource{
		label:  "eval",
		metas:  progs.EvalSet(),
		params: func(m *progs.Meta) progs.Params { return m.Defaults },
	}
}

// CertSource is the certification set: the Table II synchronization
// kernels at a reduced instantiation (2 threads, size capped at 2) so
// exhaustive exploration closes the state space.
func CertSource() Source {
	return &progsSource{
		label:  "cert-kernels",
		metas:  progs.ByKind(progs.SyncKernel),
		params: func(m *progs.Meta) progs.Params { return m.CertParams(0, 0) },
	}
}

// SingleSource wraps one already-built program (and optionally its expert
// build) as a Source, so single-program tools emit the same Report rows
// the corpus drivers do.
func SingleSource(name string, prog, manual *fenceplace.Program) Source {
	return &singleSource{name: name, prog: prog, manual: manual}
}

type singleSource struct {
	name         string
	prog, manual *fenceplace.Program
}

// GoSource lowers one file of restricted real-Go source into a
// single-member Source named after its package clause, so Go programs run
// through the same drivers as hand-built IR. There is no expert build for
// lowered source — BuildManual yields nil and drivers skip that column.
// Subset violations surface as the frontend's position-sorted diagnostic
// list.
func GoSource(filename string, src []byte) (Source, error) {
	prog, err := fenceplace.ParseGo(filename, src)
	if err != nil {
		return nil, err
	}
	name := prog.Name
	if name == "" {
		name = filename
	}
	return SingleSource(name, prog, nil), nil
}

func (s *singleSource) Label() string                       { return s.name }
func (s *singleSource) Len() int                            { return 1 }
func (s *singleSource) Name(int) string                     { return s.name }
func (s *singleSource) Build(int) *fenceplace.Program       { return s.prog }
func (s *singleSource) BuildManual(int) *fenceplace.Program { return s.manual }
