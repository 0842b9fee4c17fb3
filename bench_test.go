package fenceplace_test

// Microbenchmarks that no bench/ workload covers: corpus-scale analysis
// across worker counts, the partial-order reduction against the naive explorer, and ablations
// of the pipeline's design choices (the §4.4 entry-fence rule, drain
// policies, schedulers, the exhaustive explorer). The paper's tables and
// figures are measured by the bench/ module (fencebench) and printed by
// cmd/paperbench. Run with:
//
//	go test -run '^$' -bench . -benchmem .

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"fenceplace"
	"fenceplace/corpus"

	"fenceplace/internal/acquire"
	"fenceplace/internal/alias"
	"fenceplace/internal/escape"
	"fenceplace/internal/fence"
	"fenceplace/internal/ir"
	"fenceplace/internal/mc"
	"fenceplace/internal/orders"
	"fenceplace/internal/progs"
	"fenceplace/internal/tso"
)

// evalPrograms builds the Figure 7-10 corpus once.
func evalPrograms(b *testing.B) []*fenceplace.Program {
	b.Helper()
	set := progs.EvalSet()
	out := make([]*fenceplace.Program, len(set))
	for i, m := range set {
		out[i] = m.Default()
	}
	return out
}

// BenchmarkAnalyzeAll measures corpus-scale static analysis — every
// evaluation program under all three strategies — in two architectures:
//
//	sequential    three independent seed-style Analyze calls per program,
//	              each plan verified, walking the corpus one program at a
//	              time (the pre-session pipeline shape);
//	session/j=N   the corpus runner: one shared Analyzer session per
//	              program (alias, escape and ordering generation run once
//	              for all strategies, plans verified), with the corpus
//	              fanned out over N workers.
//
// Both report programs/s, so the two architectures can be compared side
// by side (pass sharing alone saves ~2/3 of the pass work; the fan-out
// stacks on top). The benchmark asserts only that every plan verifies and
// every program is analyzed, not a speedup.
func BenchmarkAnalyzeAll(b *testing.B) {
	set := progs.EvalSet()
	strategies := []fenceplace.Strategy{
		fenceplace.PensieveOnly, fenceplace.AddressControl, fenceplace.Control,
	}
	var sink int
	b.Run("sequential", func(b *testing.B) {
		n := 0
		for i := 0; i < b.N; i++ {
			for _, m := range set {
				p := m.Default()
				for _, s := range strategies {
					res := fenceplace.Analyze(p, s)
					if err := res.Verify(); err != nil {
						b.Fatal(err)
					}
					sink += res.FullFences
				}
				pm := m.Defaults
				pm.Manual = true
				sink += m.Build(pm).NumInstrs()
				n++
			}
		}
		b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "programs/s")
	})
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	for _, w := range workerCounts {
		if seen[w] {
			continue
		}
		seen[w] = true
		b.Run(fmt.Sprintf("session/j=%d", w), func(b *testing.B) {
			n := 0
			runner := corpus.Runner{Workers: w}
			for i := 0; i < b.N; i++ {
				rep, err := runner.Run(context.Background(), corpus.EvalSource())
				if err != nil {
					b.Fatal(err)
				}
				if len(rep.Rows) != len(set) {
					b.Fatalf("analyzed %d programs, want %d", len(rep.Rows), len(set))
				}
				for _, r := range rep.Rows {
					sink += r.Variants[len(r.Variants)-1].FullFences // Control
				}
				n += len(rep.Rows)
			}
			b.ReportMetric(float64(n)/b.Elapsed().Seconds(), "programs/s")
		})
	}
	if sink < 0 {
		b.Fatal("impossible")
	}
}

// BenchmarkCertifyVsNaive quantifies the partial-order reduction: it
// reports states/op for the same certification with and without POR.
// That the naive run visits strictly more states, with the same final
// states, is asserted by internal/mc's TestWholeProgramPORDifferential.
func BenchmarkCertifyVsNaive(b *testing.B) {
	m := progs.ByName("dekker")
	pp := m.Defaults
	pp.Threads = 2
	pp.Size = 1
	res := fenceplace.Analyze(m.Build(pp), fenceplace.Control)
	ctx := context.Background()
	for _, mode := range []struct {
		name  string
		nopor bool
	}{{"por", false}, {"naive", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var states int64
			for i := 0; i < b.N; i++ {
				cfg := mc.Config{NoPOR: mode.nopor}
				base, err := mc.NewBaselineCtx(ctx, res.Prog, nil, cfg)
				if err != nil {
					b.Fatal(err)
				}
				rep, err := mc.CertifyAgainstCtx(ctx, base, res.Instrumented, cfg)
				if err != nil {
					b.Fatal(err)
				}
				states += rep.VisitedSC + rep.VisitedTSO
			}
			b.ReportMetric(float64(states)/float64(b.N), "states/op")
		})
	}
}

// --- Ablations ---------------------------------------------------------------

// BenchmarkAblationEntryFencePolicy isolates the paper's §4.4 modification:
// placing a function-entry fence only when the function contains sync
// reads, versus Pensieve's every-function-with-escaping-reads policy. The
// benchmark reports the static fence delta as it validates it.
func BenchmarkAblationEntryFencePolicy(b *testing.B) {
	ps := evalPrograms(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		saved := 0
		for _, p := range ps {
			al := alias.Analyze(p)
			esc := escape.Analyze(p, al)
			acq := acquire.Detect(p, al, esc, acquire.Control)
			pruned := orders.Generate(p, esc).Prune(acq)
			modified := fence.Minimize(pruned, fence.Options{EntryFence: acq.FnHasSync})
			naive := fence.Minimize(pruned, fence.Options{
				EntryFence: func(fn *ir.Fn) bool { return len(esc.EscapingReads(fn)) > 0 },
			})
			saved += naive.FullFences() - modified.FullFences()
		}
		if saved <= 0 {
			b.Fatal("the §4.4 entry-fence rule saved nothing")
		}
	}
}

// BenchmarkAblationDrainPolicy compares the simulator's drain policies on a
// fenced corpus program: the policy changes dynamic behavior (forwarding
// hit rates) but never correctness.
func BenchmarkAblationDrainPolicy(b *testing.B) {
	m := progs.ByName("peterson")
	pp := m.Defaults
	pp.Manual = true
	p := m.Build(pp)
	for _, pol := range []struct {
		name string
		p    tso.Policy
	}{{"lazy", tso.DrainLazy}, {"random", tso.DrainRandom}, {"eager", tso.DrainEager}} {
		b.Run(pol.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out := tso.Run(p, tso.Config{Mode: tso.TSO, Sched: tso.Random, Policy: pol.p, Seed: 7})
				if out.Failed() {
					b.Fatalf("%v", out.Failures)
				}
			}
		})
	}
}

// BenchmarkAblationSchedulers compares the deterministic parallel-time
// scheduler against random scheduling on the simulator.
func BenchmarkAblationSchedulers(b *testing.B) {
	p := progs.ByName("radix").Default()
	for _, sc := range []struct {
		name string
		s    tso.Sched
	}{{"mintime", tso.MinTime}, {"random", tso.Random}} {
		b.Run(sc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				out := tso.Run(p, tso.Config{Mode: tso.TSO, Sched: sc.s, Policy: tso.DrainRandom, Seed: 3})
				if out.Failed() {
					b.Fatalf("%v", out.Failures)
				}
			}
		})
	}
}

// BenchmarkAblationExhaustiveExplore measures the exhaustive litmus
// explorer (SB under TSO: every interleaving and drain schedule).
func BenchmarkAblationExhaustiveExplore(b *testing.B) {
	pb := ir.NewProgram("sb")
	x := pb.Global("x", 1)
	y := pb.Global("y", 1)
	o0 := pb.Global("o0", 1)
	o1 := pb.Global("o1", 1)
	t0 := pb.Func("t0", 0)
	t0.Store(x, t0.Const(1))
	t0.Store(o0, t0.Load(y))
	t0.RetVoid()
	t1 := pb.Func("t1", 0)
	t1.Store(y, t1.Const(1))
	t1.Store(o1, t1.Load(x))
	t1.RetVoid()
	prog := pb.MustBuild()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := tso.Explore(prog, []string{"t0", "t1"}, tso.ExploreConfig{Mode: tso.TSO})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Outcomes) == 0 {
			b.Fatal("no outcomes")
		}
	}
}
