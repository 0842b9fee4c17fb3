package fenceplace_test

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the pipeline's design choices (the §4.4 entry-fence
// rule, drain policies, schedulers, the exhaustive explorer). Run with:
//
//	go test -bench=. -benchmem
//
// The figure benches measure the cost of regenerating the result (static
// pipeline and/or simulation); the experiment values themselves are
// printed by cmd/paperbench.

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"

	"fenceplace"
	"fenceplace/corpus"

	"fenceplace/internal/acquire"
	"fenceplace/internal/alias"
	"fenceplace/internal/delayset"
	"fenceplace/internal/escape"
	"fenceplace/internal/fence"
	"fenceplace/internal/ir"
	"fenceplace/internal/mc"
	"fenceplace/internal/orders"
	"fenceplace/internal/progs"
	"fenceplace/internal/telemetry"
	"fenceplace/internal/tso"
)

// BenchmarkTable2 classifies the nine synchronization kernels by acquire
// signature (the paper's Table II study).
func BenchmarkTable2(b *testing.B) {
	kernels := progs.ByKind(progs.SyncKernel)
	built := make([]*fenceplace.Program, len(kernels))
	for i, m := range kernels {
		built[i] = m.Default()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range built {
			al := alias.Analyze(p)
			esc := escape.Analyze(p, al)
			sig := acquire.Classify(p, al, esc)
			if sig.HasPureAddress() {
				b.Fatal("pure-address acquire appeared")
			}
		}
	}
}

// BenchmarkFigure2 regenerates the worked example: exact Shasha-Snir cycle
// enumeration, pruning, and fence minimization (5 fences -> 2 fences).
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, isAcq := delayset.Fig2()
		delays := delayset.Delays(p)
		if n := len(delayset.MinimizeFences(delays)); n != 5 {
			b.Fatalf("full placement: %d fences, want 5", n)
		}
		pruned := delayset.Prune(delays, isAcq)
		if n := len(delayset.MinimizeFences(pruned)); n != 2 {
			b.Fatalf("pruned placement: %d fences, want 2", n)
		}
	}
}

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

// BenchmarkFigure7 runs escape analysis + both acquire detectors over the
// whole evaluation corpus (the static study behind Figure 7).
func BenchmarkFigure7(b *testing.B) {
	ps := evalPrograms(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range ps {
			al := alias.Analyze(p)
			esc := escape.Analyze(p, al)
			ctl := acquire.Detect(p, al, esc, acquire.Control)
			ac := acquire.Detect(p, al, esc, acquire.AddressControl)
			if ctl.Count() > ac.Count() {
				b.Fatal("monotonicity violated")
			}
		}
	}
}

// BenchmarkFigure8 measures Pensieve ordering generation plus DRF pruning
// under both variants (Figure 8's data).
func BenchmarkFigure8(b *testing.B) {
	ps := evalPrograms(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range ps {
			al := alias.Analyze(p)
			esc := escape.Analyze(p, al)
			set := orders.Generate(p, esc)
			ctl := set.Prune(acquire.Detect(p, al, esc, acquire.Control))
			ac := set.Prune(acquire.Detect(p, al, esc, acquire.AddressControl))
			if ctl.Total() > ac.Total() || ac.Total() > set.Total() {
				b.Fatal("pruning monotonicity violated")
			}
		}
	}
}

// BenchmarkFigure9 measures the full static pipeline through locally
// optimized fence minimization for all three strategies (Figure 9's data).
func BenchmarkFigure9(b *testing.B) {
	ps := evalPrograms(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range ps {
			pen := fenceplace.Analyze(p, fenceplace.PensieveOnly)
			ac := fenceplace.Analyze(p, fenceplace.AddressControl)
			ctl := fenceplace.Analyze(p, fenceplace.Control)
			if ctl.FullFences > ac.FullFences || ac.FullFences > pen.FullFences {
				b.Fatal("fence monotonicity violated")
			}
		}
	}
}

// BenchmarkFigure10 regenerates Figure 10 the way paperbench -fig10 does:
// the corpus runner analyzes every evaluation program, verifies its plans
// and runs each variant (Manual included) once on the TSO simulator — the
// dynamic experiment behind the figure. A failing run fails the bench.
func BenchmarkFigure10(b *testing.B) {
	runner := corpus.Runner{Seeds: 1}
	for i := 0; i < b.N; i++ {
		rep, err := runner.Run(context.Background(), corpus.EvalSource())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := corpus.Fig10(rep); err != nil {
			b.Fatal(err)
		}
	}
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
// Both report programs/s. On ≥4 cores the shared-session run must beat the
// sequential sweep by ≥2x (pass sharing alone saves ~2/3 of the pass work;
// the fan-out stacks on top).
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

// BenchmarkManualTable exercises the §5.3 expert builds under TSO.
func BenchmarkManualTable(b *testing.B) {
	var built []*fenceplace.Program
	for _, m := range progs.EvalSet() {
		pp := m.Defaults
		pp.Manual = true
		built = append(built, m.Build(pp))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range built {
			out := tso.Run(p, tso.Config{Mode: tso.TSO, Sched: tso.MinTime, Policy: tso.DrainRandom, Seed: 1})
			if out.Failed() {
				b.Fatalf("%s: %v", p.Name, out.Failures)
			}
		}
	}
}

// BenchmarkCertify measures the certification subsystem: exhaustive
// SC-equivalence checking of the Control placement on corpus kernels at a
// reduced instantiation, across worker-pool sizes. The reported states/s
// metric is total states visited (SC + TSO exploration) per second; on
// multi-core machines the GOMAXPROCS configuration must beat 1 worker on
// the medium program.
func BenchmarkCertify(b *testing.B) {
	cases := []struct {
		name    string
		prog    string
		threads int
		size    int64
	}{
		{"small-dekker", "dekker", 2, 1},
		{"medium-szymanski", "szymanski", 2, 2},
	}
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	seen := map[int]bool{}
	uniq := workerCounts[:0]
	for _, w := range workerCounts {
		if !seen[w] {
			seen[w] = true
			uniq = append(uniq, w)
		}
	}
	workerCounts = uniq
	for _, tc := range cases {
		m := progs.ByName(tc.prog)
		pp := m.Defaults
		pp.Threads = tc.threads
		pp.Size = tc.size
		res := fenceplace.Analyze(m.Build(pp), fenceplace.Control)
		for _, w := range workerCounts {
			b.Run(fmt.Sprintf("%s/workers=%d", tc.name, w), func(b *testing.B) {
				b.ReportAllocs()
				var states int64
				for i := 0; i < b.N; i++ {
					rep, err := fenceplace.CertifyCtx(context.Background(), res, nil, fenceplace.WithWorkers(w))
					if err != nil {
						b.Fatal(err)
					}
					if !rep.Equivalent {
						b.Fatalf("%s: not SC-equivalent: %s", tc.prog, rep)
					}
					states += rep.VisitedSC + rep.VisitedTSO
				}
				b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/s")
			})
		}
	}
}

// BenchmarkCertifySpill measures capped-memory certification: msqueue at
// an instantiation whose seen set does not fit the memory budget,
// so the two-level seen set must seal hot tables into sorted runs and
// spill them to disk to finish. The budget comes from
// FENCEPLACE_BENCH_MEMCAP (MemoryCap in arena words; the default 1<<19
// words anchors a 4 MiB seen budget, against the ~14 MiB an unbounded hot
// tier would hold at ~26 B per state).
//
// The benchmark fails if spilling never engaged (the program fit in RAM —
// the bench measured nothing) or the exploration truncated, and on ≥4-core
// machines if throughput drops below 1M states/s. Reported metrics: total
// states/s, spilled MB per run, the hot-tier share of seen-set hits, and a
// peak-heap proxy showing the exploration stayed near its budget.
func BenchmarkCertifySpill(b *testing.B) {
	b.Setenv("FENCEPLACE_CACHE_DIR", "")
	memCap := 1 << 19
	if env := os.Getenv("FENCEPLACE_BENCH_MEMCAP"); env != "" {
		n, err := strconv.Atoi(env)
		if err != nil {
			b.Fatalf("FENCEPLACE_BENCH_MEMCAP=%q: %v", env, err)
		}
		memCap = n
	}
	m := progs.ByName("msqueue")
	pp := m.Defaults
	pp.Threads = 3
	pp.Size = 4 // ~530k states: far past the capped seen budget
	res := fenceplace.Analyze(m.Build(pp), fenceplace.Control)
	opts := []fenceplace.Option{
		fenceplace.WithWorkers(runtime.GOMAXPROCS(0)),
		fenceplace.WithMaxStates(16 << 20),
		fenceplace.WithMemoryCap(memCap),
		fenceplace.WithSpillDir(b.TempDir()),
	}
	before := telemetry.Default().Snapshot().Counters
	b.ReportAllocs()
	b.ResetTimer()
	var states int64
	for i := 0; i < b.N; i++ {
		rep, err := fenceplace.CertifyCtx(context.Background(), res, nil, opts...)
		if err != nil {
			// Includes ErrTruncated: the bench must certify to completion.
			b.Fatal(err)
		}
		if !rep.Equivalent {
			b.Fatalf("msqueue: not SC-equivalent: %s", rep)
		}
		states += rep.VisitedSC + rep.VisitedTSO
	}
	b.StopTimer()
	after := telemetry.Default().Snapshot().Counters
	delta := func(name string) int64 { return after[name] - before[name] }

	if seals, runs := delta("mc.seen_seals"), delta("mc.spill_runs"); seals == 0 || runs == 0 {
		b.Fatalf("spilling never engaged (seals=%d, spilled runs=%d): the state space fit the budget and the bench measured nothing — lower FENCEPLACE_BENCH_MEMCAP", seals, runs)
	}
	rate := float64(states) / b.Elapsed().Seconds()
	b.ReportMetric(rate, "states/s")
	b.ReportMetric(float64(delta("mc.spill_bytes"))/float64(b.N)/(1<<20), "spill-MB/op")
	if hits := delta("mc.seen_hot_hits") + delta("mc.seen_cold_hits"); hits > 0 {
		b.ReportMetric(float64(delta("mc.seen_hot_hits"))/float64(hits), "hot-hit-ratio")
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(ms.HeapSys)/(1<<20), "peak-heap-MB")
	if runtime.GOMAXPROCS(0) >= 4 && rate < 1e6 {
		b.Fatalf("capped-memory throughput %.2fM states/s on %d cores, want >=1M", rate/1e6, runtime.GOMAXPROCS(0))
	}
}

// BenchmarkCertifyCorpus measures corpus-style certification the way
// paperbench -cert runs it: per program, the full static analysis, one SC
// baseline, and a TSO exploration per variant (Manual plus the three
// analyzed placements) against that shared baseline. Analysis is repeated
// per iteration so the reported wall time covers the whole pipeline, not a
// warm session. states/s counts the SC exploration once.
//
// The cold variant explores everything; the warm variant serves the SC
// baselines and the variants' TSO outcome sets from a pre-populated
// persistent store (the cross-process cache behind -cache-dir), so the
// delta between the two is what the store buys a repeated run.
func BenchmarkCertifyCorpus(b *testing.B) {
	// The operator's cache must not leak in: it would warm the cold leg
	// and erase the delta this benchmark exists to show.
	b.Setenv("FENCEPLACE_CACHE_DIR", "")
	var sources []corpus.Source
	for _, name := range []string{"dekker", "peterson"} {
		m := progs.ByName(name)
		pp := m.Defaults
		pp.Threads = 2
		pp.Size = 1
		pm := pp
		pm.Manual = true
		sources = append(sources, corpus.SingleSource(name, m.Build(pp), m.Build(pm)))
	}
	certify := func(b *testing.B, dir string) (states int64) {
		runner := corpus.Runner{Certify: true, Options: []fenceplace.Option{fenceplace.WithCacheDir(dir)}}
		for _, src := range sources {
			rep, err := runner.Run(context.Background(), src)
			if err != nil {
				b.Fatal(err)
			}
			for vi, v := range rep.Rows[0].Variants {
				if v.Cert.Status != corpus.CertCertified {
					b.Fatalf("%s/%s: %s (%s)", src.Label(), v.Name, v.Cert.Status, v.Cert.Err)
				}
				if vi == 0 {
					states += v.Cert.VisitedSC // explored once per row
				}
				states += v.Cert.VisitedTSO
			}
		}
		return states
	}
	run := func(b *testing.B, dir string) {
		b.ReportAllocs()
		b.ResetTimer()
		var states int64
		for i := 0; i < b.N; i++ {
			states += certify(b, dir)
		}
		b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/s")
	}
	b.Run("cold", func(b *testing.B) { run(b, "") })
	b.Run("warm", func(b *testing.B) {
		dir := b.TempDir()
		certify(b, dir) // populate the store outside the timer
		run(b, dir)
	})
}

// BenchmarkCertifyVsNaive quantifies the partial-order reduction: the same
// certification with POR disabled visits strictly more states.
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
