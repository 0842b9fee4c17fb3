// Package corpus is the public corpus-driver API: it streams named
// programs through the fence-placement pipeline (analysis, the dynamic
// experiment, certification) and emits plain-data Report rows that
// serialize to versioned JSON, merge across shards, and render into the
// paper's tables.
//
// The package exists so the paper's evaluation scales past one process:
// Shard(i, n) deterministically partitions any Source, rows produced from
// a shard keep their unsharded corpus index, and Report.Merge recombines
// shard outputs into a report whose rendered tables are byte-identical to
// an unsharded run — run `paperbench -shard 2/4` on four machines, merge
// the four JSON files, and read the same Figures 7–10. Table rendering is
// a view over the Report data, never the source of truth.
package corpus

import (
	"fmt"

	"fenceplace"
	"fenceplace/internal/progs"
)

// Source is an iterator of named programs: the unit the Runner drives.
// Programs are built lazily, so a shard only pays for its own members.
// Implementations must be safe for concurrent use — the Runner builds
// members from several goroutines.
type Source interface {
	// Label names the source ("eval", "cert-kernels", a program name);
	// reports carry it as provenance and Merge refuses to mix labels.
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

// indexed is the optional interface a partitioned Source implements so
// the Runner can stamp rows with their unsharded corpus index; Shard's
// views provide it, plain Sources get identity indices.
type indexed interface {
	origIndex(i int) int
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

// Shard returns the i-of-n partition of src (i is 1-based): the members
// whose corpus index is congruent to i-1 modulo n. The partition is
// deterministic and exhaustive — the n shards of one source are disjoint
// and cover it — and rows produced from a shard keep their unsharded
// Index, so the shard reports Merge back into exactly the unsharded
// report.
func Shard(src Source, i, n int) (Source, error) {
	if n < 1 || i < 1 || i > n {
		return nil, fmt.Errorf("corpus: invalid shard %d/%d", i, n)
	}
	sh := &shardSource{src: src, i: i, n: n}
	for j := 0; j < src.Len(); j++ {
		if j%n == i-1 {
			sh.idx = append(sh.idx, j)
		}
	}
	return sh, nil
}

type shardSource struct {
	src  Source
	idx  []int
	i, n int
}

func (s *shardSource) Label() string                         { return s.src.Label() }
func (s *shardSource) Len() int                              { return len(s.idx) }
func (s *shardSource) Name(i int) string                     { return s.src.Name(s.idx[i]) }
func (s *shardSource) Build(i int) *fenceplace.Program       { return s.src.Build(s.idx[i]) }
func (s *shardSource) BuildManual(i int) *fenceplace.Program { return s.src.BuildManual(s.idx[i]) }
func (s *shardSource) origIndex(i int) int                   { return s.idx[i] }
