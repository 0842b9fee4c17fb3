package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync/atomic"

	"fenceplace"
	"fenceplace/corpus"
	"fenceplace/internal/mc"
	"fenceplace/internal/par"
	"fenceplace/internal/progs"
)

// env is what every workload is set up from.
type env struct {
	root   string // repository root (testdata/gosource lives there)
	seed   uint64
	tmp    string // scratch directory for caches and spill areas
	golden *golden
}

// unit is the outcome of one unit of work: a pass, a certification or a
// request, made of ops (certification cells, evaluation rows, requests).
type unit struct {
	ops, failed int64
	errs        []string
}

// fail counts n failed ops and keeps the first maxErrors messages.
func (u *unit) fail(n int64, msgs ...string) {
	u.failed += n
	for _, m := range msgs {
		if len(u.errs) < maxErrors {
			u.errs = append(u.errs, m)
		}
	}
}

func (u *unit) add(o unit) {
	u.ops += o.ops
	u.fail(o.failed, o.errs...)
}

// fixture is a workload set up and ready to run units of work. run uses
// the public entry points (corpus.Runner, the HTTP service) and is what
// the end-to-end metrics time; direct does the same work through each
// layer's own function and records spans into sc when sc.rec is set.
type fixture interface {
	clients() int
	// cold is how many units make up the first, cold pass that set-up
	// ends with.
	cold() int64
	run(ctx context.Context) unit
	direct(ctx context.Context, sc scope) unit
	close()
}

// workload is one benchmark workload; BENCHMARK.json and README.md give
// the reason each was chosen.
type workload struct {
	name string
	loop string // load shape, for the report
	open func(ctx context.Context, e *env) (fixture, error)
	// traced is how many units a traced run replays at most; it stops
	// earlier when --seconds runs out.
	traced int64
}

var workloads = []workload{
	{
		name:   "cert-kernels",
		loop:   "closed, 1 client, one corpus pass at a time",
		open:   openCertKernels,
		traced: 3,
	},
	{
		name:   "cert-large",
		loop:   "closed, 1 client, one certification at a time",
		open:   openCertLarge,
		traced: 1,
	},
	{
		name:   "eval-static",
		loop:   "closed, 1 client, one evaluation pass at a time",
		open:   openEvalStatic,
		traced: 50,
	},
	{
		name:   "service-mixed",
		loop:   "closed, nproc clients, one request each at a time",
		open:   openServiceMixed,
		traced: 300,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// noPersistence pins both disk areas off, so neither
// $FENCEPLACE_CACHE_DIR nor $FENCEPLACE_SPILL_DIR can leak into a run.
var noPersistence = []fenceplace.Option{fenceplace.WithCacheDir(""), fenceplace.WithSpillDir("")}

// permuted presents a Source's members in a seeded order. Rows then carry
// permuted indexes; checks and renderers work by program name or restore
// the canonical order.
type permuted struct {
	corpus.Source
	perm []int
}

func permute(src corpus.Source, seed uint64, stream ...uint64) *permuted {
	return &permuted{Source: src, perm: rng(seed, append([]uint64{2}, stream...)...).Perm(src.Len())}
}

func (p *permuted) Name(i int) string                     { return p.Source.Name(p.perm[i]) }
func (p *permuted) Build(i int) *fenceplace.Program       { return p.Source.Build(p.perm[i]) }
func (p *permuted) BuildManual(i int) *fenceplace.Program { return p.Source.BuildManual(p.perm[i]) }

// --- cert-kernels -----------------------------------------------------------

type certKernels struct {
	e      *env
	base   corpus.Source
	passes atomic.Uint64 // passes started, which seeds the next one's order
}

func openCertKernels(_ context.Context, e *env) (fixture, error) {
	return &certKernels{e: e, base: corpus.CertSource()}, nil
}

func (f *certKernels) clients() int { return 1 }
func (f *certKernels) cold() int64  { return 1 }
func (f *certKernels) close()       {}

// ops is the number of certification cells per pass.
func (f *certKernels) ops() int64 { return int64(4 * f.base.Len()) }

// next returns the program order of the next pass. The programs are
// certified GOMAXPROCS at a time, as paperbench -cert does, so the order
// decides which explorations overlap, and with them the pass time and the
// peak RSS; a fresh seeded order per pass makes a run cover many overlaps
// instead of one.
func (f *certKernels) next() *permuted { return permute(f.base, f.e.seed, f.passes.Add(1)) }

func (f *certKernels) run(ctx context.Context) unit {
	runner := corpus.Runner{Certify: true, Options: noPersistence}
	rep, err := runner.Run(ctx, f.next())
	if err != nil {
		return unit{ops: f.ops(), failed: f.ops(), errs: []string{err.Error()}}
	}
	corpusSink = corpus.CertTable(rep) // paperbench -cert prints this table
	return f.check(rep.Rows)
}

// direct certifies the programs with the Runner's fan-out: GOMAXPROCS
// programs at once, each row on its own trace lane, the analysis of each
// single-threaded and certification at the default worker count.
func (f *certKernels) direct(ctx context.Context, sc scope) unit {
	src := f.next()
	pass, end := sc.enter(layerBench, "pass", 0)
	defer end(nil)
	plan := certPlan{strategies: evalStrategies}
	if runtime.GOMAXPROCS(0) > 1 {
		plan.analysis = []fenceplace.Option{fenceplace.WithWorkers(1)}
	}
	rows := make([]*corpus.Row, src.Len())
	errs := make([]error, src.Len())
	par.ForEach(src.Len(), runtime.GOMAXPROCS(0), func(i int) {
		rows[i], errs[i] = certRow(ctx, pass, src, i, plan, pass.lane*32+int32(i)+1)
	})
	rep := &corpus.Report{Version: corpus.Version, Source: src.Label()}
	var msgs []string
	for i, row := range rows {
		if errs[i] != nil {
			msgs = append(msgs, errs[i].Error())
			continue
		}
		rep.Rows = append(rep.Rows, *row)
	}
	_ = pass.call(layerCorpus, "render", func() (int64, error) {
		corpusSink = corpus.CertTable(rep)
		return 0, nil
	})
	u := f.check(rep.Rows) // counts the rows that errored as missing
	u.fail(0, msgs...)
	return u
}

// certRow builds and certifies one member of a source in its own row span
// on the given trace lane.
func certRow(ctx context.Context, parent scope, src corpus.Source, i int, plan certPlan, lane int32) (row *corpus.Row, err error) {
	name := src.Name(i)
	sc, end := parent.enter(layerBench, "row "+name, lane)
	defer func() { end(err) }()
	var prog, manual *fenceplace.Program
	_ = sc.call(layerProgs, "build", func() (int64, error) {
		prog, manual = src.Build(i), src.BuildManual(i)
		return 0, nil
	})
	return certifyDirect(ctx, sc, name, prog, manual, plan)
}

// check compares every cell with the oracle; a wrong cell is a failed op.
func (f *certKernels) check(rows []corpus.Row) unit {
	u := unit{ops: f.ops()}
	if len(rows) != f.base.Len() {
		u.fail(int64(4*(f.base.Len()-len(rows))), fmt.Sprintf("cert-kernels: %d rows, want %d", len(rows), f.base.Len()))
	}
	for i := range rows {
		if bad := f.e.golden.checkRow("cert-kernels/"+rows[i].Program, &rows[i]); len(bad) > 0 {
			u.fail(int64(len(bad)), bad...)
		}
	}
	return u
}

// --- cert-large -------------------------------------------------------------

// The cert-large input: szymanski at size 3 certified under Control with a
// 1<<19-word memory cap, which anchors a 4 MiB seen-set budget that the
// ~1.9M-state exploration outgrows.
const (
	largeProgram   = "szymanski"
	largeSize      = 3
	largeMemoryCap = 1 << 19
	largeMaxStates = 16 << 20
)

type certLarge struct {
	e     *env
	spill string
}

func openCertLarge(_ context.Context, e *env) (fixture, error) {
	spill, err := os.MkdirTemp(e.tmp, "spill-")
	if err != nil {
		return nil, err
	}
	return &certLarge{e: e, spill: spill}, nil
}

func (f *certLarge) clients() int { return 1 }
func (f *certLarge) cold() int64  { return 1 }
func (f *certLarge) close()       { os.RemoveAll(f.spill) }

func largeBuild() *fenceplace.Program {
	meta := progs.ByName(largeProgram)
	p := meta.Defaults
	p.Threads, p.Size = 2, largeSize
	return meta.Build(p)
}

func (f *certLarge) options() []fenceplace.Option {
	return []fenceplace.Option{
		fenceplace.WithCacheDir(""), fenceplace.WithSpillDir(f.spill),
		fenceplace.WithMemoryCap(largeMemoryCap), fenceplace.WithMaxStates(largeMaxStates),
	}
}

func (f *certLarge) plan() certPlan {
	return certPlan{
		strategies: []fenceplace.Strategy{fenceplace.Control},
		cfg:        mc.Config{MaxStates: largeMaxStates, MemoryCap: largeMemoryCap, SpillDir: f.spill},
	}
}

func (f *certLarge) run(ctx context.Context) unit {
	runner := corpus.Runner{
		Strategies: []fenceplace.Strategy{fenceplace.Control},
		Certify:    true,
		Workers:    1,
		Options:    f.options(),
	}
	rep, err := runner.Run(ctx, corpus.SingleSource(largeProgram, largeBuild(), nil))
	if err != nil {
		return unit{ops: 1, failed: 1, errs: []string{err.Error()}}
	}
	return f.check(rep.Rows)
}

func (f *certLarge) direct(ctx context.Context, sc scope) unit {
	op, end := sc.enter(layerBench, "certification", 0)
	var prog *fenceplace.Program
	_ = op.call(layerProgs, "build", func() (int64, error) { prog = largeBuild(); return 0, nil })
	row, err := certifyDirect(ctx, op, largeProgram, prog, nil, f.plan())
	end(err)
	if err != nil {
		return unit{ops: 1, failed: 1, errs: []string{err.Error()}}
	}
	return f.check([]corpus.Row{*row})
}

func (f *certLarge) check(rows []corpus.Row) unit {
	u := unit{ops: 1}
	if len(rows) != 1 {
		u.fail(1, fmt.Sprintf("cert-large: %d rows, want 1", len(rows)))
		return u
	}
	if bad := f.e.golden.checkRow("cert-large/"+largeProgram, &rows[0]); len(bad) > 0 {
		u.fail(1, bad...)
	}
	return u
}

// --- eval-static ------------------------------------------------------------

// evalStatic processes one program at a time (paperbench's default is
// GOMAXPROCS). With two programs in flight on 2 cores, which ones overlap
// decided the peak RSS: 21 to 34 MB over ten runs, against 18 to 19 MB one
// at a time. The parallelism inside each program, the per-function pass
// fan-out, still runs at GOMAXPROCS.
type evalStatic struct {
	e     *env
	src   *permuted
	order map[string]int // program -> canonical index
	gosrc []goFile
}

type goFile struct {
	name string
	src  []byte
}

func openEvalStatic(_ context.Context, e *env) (fixture, error) {
	base := corpus.EvalSource()
	f := &evalStatic{e: e, src: permute(base, e.seed), order: map[string]int{}}
	for i := 0; i < base.Len(); i++ {
		f.order[base.Name(i)] = i
	}
	files, err := readGoSources(e.root)
	if err != nil {
		return nil, err
	}
	f.gosrc = files
	return f, nil
}

// readGoSources loads the frontend's testdata twins, sorted by name.
func readGoSources(root string) ([]goFile, error) {
	paths, err := filepath.Glob(filepath.Join(root, "testdata", "gosource", "*.go"))
	if err != nil || len(paths) == 0 {
		return nil, fmt.Errorf("no Go sources under %s/testdata/gosource", root)
	}
	sort.Strings(paths)
	var out []goFile
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		out = append(out, goFile{name: filepath.Base(p), src: src})
	}
	return out, nil
}

func (f *evalStatic) clients() int { return 1 }
func (f *evalStatic) cold() int64  { return 1 }
func (f *evalStatic) close()       {}

func (f *evalStatic) opsPerPass() int64 { return int64(f.src.Len() + len(f.gosrc)) }

func (f *evalStatic) run(ctx context.Context) unit {
	runner := corpus.Runner{Seeds: 1, Workers: 1, Options: noPersistence}
	rep, err := runner.Run(ctx, f.src)
	if err != nil {
		return unit{ops: f.opsPerPass(), failed: f.opsPerPass(), errs: []string{err.Error()}}
	}
	u := f.checkReport(rep, scope{})
	for _, g := range f.gosrc {
		u.ops++
		prog, err := fenceplace.ParseGo(g.name, g.src)
		if err == nil {
			var res []*fenceplace.Result
			if res, err = fenceplace.NewAnalyzer(prog, noPersistence...).AnalyzeAllCtx(ctx); err == nil {
				err = f.checkFences(g.name, res)
			}
		}
		if err != nil {
			u.fail(1, err.Error())
		}
	}
	return u
}

func (f *evalStatic) direct(ctx context.Context, sc scope) unit {
	pass, end := sc.enter(layerBench, "pass", 0)
	defer end(nil)
	rep := &corpus.Report{Version: corpus.Version, Source: f.src.Label()}
	var msgs []string
	for i := 0; i < f.src.Len(); i++ {
		name := f.src.Name(i)
		rsc, endRow := pass.enter(layerBench, "row "+name, 0)
		var prog, manual *fenceplace.Program
		_ = rsc.call(layerProgs, "build", func() (int64, error) {
			prog, manual = f.src.Build(i), f.src.BuildManual(i)
			return 0, nil
		})
		row, err := evalRowDirect(ctx, rsc, name, prog, manual)
		endRow(err)
		if err != nil {
			msgs = append(msgs, err.Error())
			continue
		}
		rep.Rows = append(rep.Rows, *row)
	}
	u := f.checkReport(rep, pass) // counts the rows that errored as missing
	u.fail(0, msgs...)
	for _, g := range f.gosrc {
		u.ops++
		var prog *fenceplace.Program
		err := pass.call(layerFrontend, "lower", func() (n int64, err error) {
			prog, err = fenceplace.ParseGo(g.name, g.src)
			return int64(len(g.src)), err
		})
		if err == nil {
			var res []*fenceplace.Result
			if res, err = analyze(ctx, pass, prog, nil); err == nil {
				err = f.checkFences(g.name, res)
			}
		}
		if err != nil {
			u.fail(1, err.Error())
		}
	}
	return u
}

// checkReport restores the canonical row order, encodes the report,
// renders the tables and checks them and every row. Missing rows or a
// table mismatch fail every row of the pass: the pass's output is wrong.
func (f *evalStatic) checkReport(rep *corpus.Report, sc scope) unit {
	u := unit{ops: int64(f.src.Len())}
	for i := range rep.Rows {
		rep.Rows[i].Index = f.order[rep.Rows[i].Program]
	}
	sort.Slice(rep.Rows, func(i, j int) bool { return rep.Rows[i].Index < rep.Rows[j].Index })
	var buf strings.Builder
	var tables string
	_ = sc.call(layerCorpus, "encode", func() (int64, error) {
		err := rep.EncodeJSON(&buf)
		return int64(buf.Len()), err
	})
	err := sc.call(layerCorpus, "render", func() (n int64, err error) {
		tables, err = renderTables(rep)
		return int64(len(tables)), err
	})
	missing := int64(f.src.Len() - len(rep.Rows))
	switch {
	case missing > 0:
		u.fail(u.ops, fmt.Sprintf("eval-static: %d rows missing", missing))
	case err != nil:
		u.fail(u.ops, err.Error())
	case tables != f.e.golden.Tables:
		u.fail(u.ops, "eval-static: rendered tables differ from "+goldenTables)
	default:
		for i := range rep.Rows {
			if err := monotoneFences(&rep.Rows[i]); err != nil {
				u.fail(1, err.Error())
			}
		}
	}
	return u
}

// checkFences compares a Go twin's fence counts with the oracle.
func (f *evalStatic) checkFences(file string, res []*fenceplace.Result) error {
	want := f.e.golden.Fences[file]
	for _, r := range res {
		if got, ok := want[r.Strategy.String()]; !ok || got != r.FullFences {
			return fmt.Errorf("gosource %s/%s: %d full fences, want %d", file, r.Strategy, r.FullFences, got)
		}
	}
	if len(res) != len(want) {
		return fmt.Errorf("gosource %s: %d strategies analyzed, want %d", file, len(res), len(want))
	}
	return nil
}

// corpusSink keeps rendered tables alive so rendering is not optimized
// away.
var corpusSink string
