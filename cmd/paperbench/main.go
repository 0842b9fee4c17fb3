// Command paperbench regenerates every table and figure of the paper's
// evaluation over the corpus:
//
//	paperbench              # everything
//	paperbench -table2      # Table II only
//	paperbench -fig7 -fig9  # selected figures
//	paperbench -seeds 3     # average Figure 10 over 3 simulator seeds
//	paperbench -j 4         # analyze the corpus with 4 parallel workers
//
// The evaluation is driven through the public fenceplace/corpus package,
// which makes runs shardable across processes and machines:
//
//	paperbench -shard 1/2 -json s1.json     # analyze half the corpus
//	paperbench -shard 2/2 -json s2.json     # ...the other half elsewhere
//	paperbench -merge s1.json,s2.json       # render tables from the merged
//	                                        # reports — byte-identical to an
//	                                        # unsharded run
//
// -json writes the run's corpus Report (the evaluation report when
// figures ran, else the certification report); -merge skips analysis and
// renders the requested tables from previously written reports. Shards of
// a -cert run merge the same way.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"

	"fenceplace"
	"fenceplace/corpus"
	"fenceplace/internal/cli"
	"fenceplace/internal/delayset"
	"fenceplace/internal/passes"
	"fenceplace/internal/progs"
	"fenceplace/internal/stats"
	"fenceplace/internal/store"
	"fenceplace/internal/telemetry"
)

func main() {
	var (
		table2   = flag.Bool("table2", false, "Table II: acquire signatures in sync kernels")
		fig2     = flag.Bool("fig2", false, "worked example (§2.4): delay set and fence counts")
		fig7     = flag.Bool("fig7", false, "Figure 7: acquires as % of escaping reads")
		fig8     = flag.Bool("fig8", false, "Figure 8: ordering counts by type")
		fig9     = flag.Bool("fig9", false, "Figure 9: full fences remaining on x86-TSO")
		fig10    = flag.Bool("fig10", false, "Figure 10: simulated execution time vs manual")
		manual   = flag.Bool("manual", false, "manual fence counts (§5.3)")
		seeds    = flag.Int("seeds", 1, "simulator seeds averaged in Figure 10")
		cert     = flag.Bool("cert", false, "certification column: model-check SC-equivalence of every placement")
		budget   = flag.Int64("certbudget", 1<<21, "model-checker state budget per exploration")
		deadline = flag.Duration("deadline", 0, "wall-clock budget for the whole run; exceeding it aborts with the inconclusive exit code 2 (0 = none)")
		jobs     = flag.Int("j", 0, "corpus analysis workers (0 = GOMAXPROCS)")
		cacheDir = flag.String("cache-dir", "", "persistent exploration store for SC baselines and TSO outcome sets (default $FENCEPLACE_CACHE_DIR; empty = no persistence)")
		spillDir = flag.String("spill-dir", "", "scratch area for seen-set spill (default $FENCEPLACE_SPILL_DIR; empty = keep sealed runs in RAM)")
		shard    = flag.String("shard", "", "run only shard i/n of the corpus (e.g. 2/4); rows keep their unsharded index")
		jsonOut  = flag.String("json", "", "write the run's corpus Report JSON to this file")
		mergeIn  = flag.String("merge", "", "comma-separated report JSON files: skip analysis, merge them and render the requested tables")
		traceOut = flag.String("trace", "", "write a Chrome trace-event file (Perfetto-openable) of the run")
		metrics  = flag.Bool("metrics", false, "dump the final telemetry snapshot (JSON) to stderr on exit")
		pprof    = flag.String("pprof", "", "serve net/http/pprof and expvar on this address for the run's duration")
		version  = flag.Bool("version", false, "print the build identity and exit")
	)
	flag.Parse()
	if *version {
		cli.Version()
		return
	}

	ctx, stop := cli.SignalContext()
	defer stop()
	if *deadline > 0 {
		// The deadline bounds wall-clock, not states: a stuck disk or an
		// oversized corpus run ends in the inconclusive exit code instead
		// of a hang. Cancellation wins against I/O retries within ~100ms.
		var cancelDeadline context.CancelFunc
		ctx, cancelDeadline = context.WithTimeout(ctx, *deadline)
		defer cancelDeadline()
	}

	// Observability surfaces. exit (below) runs the cleanup — trace-file
	// finalization, metrics dump — before os.Exit, which would skip defers;
	// the deferred call covers the fall-through return.
	var metricsW io.Writer
	if *metrics {
		metricsW = os.Stderr
	}
	cleanup, err := telemetry.Mount(telemetry.MountConfig{
		TracePath: *traceOut, PprofAddr: *pprof, Metrics: metricsW,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	var cleanupOnce sync.Once
	finish := func() {
		cleanupOnce.Do(func() {
			if err := cleanup(); err != nil {
				fmt.Fprintln(os.Stderr, "telemetry:", err)
			}
		})
	}
	defer finish()
	exit := func(code int) {
		finish()
		os.Exit(code)
	}

	all := !*table2 && !*fig2 && !*fig7 && !*fig8 && !*fig9 && !*fig10 && !*manual && !*cert

	if *mergeIn != "" {
		if err := renderMerged(*mergeIn, all, *fig7, *fig8, *fig9, *fig10, *manual, *cert); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		return
	}

	shardI, shardN, err := parseShard(*shard)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(2)
	}

	if all || *table2 {
		fmt.Println(renderTable2())
	}

	// Resolve the baseline store directory exactly once, up front: the
	// flag, else the environment. Every consumer below (runner options and
	// the footer's store handle) sees this one value.
	dir := *cacheDir
	if dir == "" {
		dir = os.Getenv("FENCEPLACE_CACHE_DIR")
	}
	opts := []fenceplace.Option{fenceplace.WithMaxStates(*budget), fenceplace.WithCacheDir(dir)}
	if *spillDir != "" {
		opts = append(opts, fenceplace.WithSpillDir(*spillDir))
	}

	var out *corpus.Report
	var certRan bool
	if all || *cert {
		// Exhaustive certification runs the sync kernels at a reduced
		// instantiation (2 threads) so the whole state space fits. Rows are
		// analyzed in parallel; per row, one SC exploration serves as the
		// baseline all four variants certify against. With a warm
		// -cache-dir both the baselines and the variants' TSO outcome sets
		// are served from the persistent store without exploring.
		rep, err := runCert(ctx, os.Stdout, shardI, shardN, *jobs, opts, dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(failCode(err))
		}
		out = rep
		certRan = true
	}
	if all || *fig2 {
		fmt.Println(renderFig2())
	}
	if all || *fig7 || *fig8 || *fig9 || *fig10 || *manual {
		src := corpus.EvalSource()
		if shardN > 0 {
			if src, err = corpus.Shard(src, shardI, shardN); err != nil {
				fmt.Fprintln(os.Stderr, err)
				exit(2)
			}
		}
		runner := corpus.Runner{Seeds: *seeds, Workers: *jobs, Options: opts}
		rep, err := runner.Run(ctx, src)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(failCode(err))
		}
		out = rep
		renderFigures(rep, all, *fig7, *fig8, *fig9, *fig10, *manual)
		if certRan && *jsonOut != "" {
			// The cert and eval reports come from different sources and
			// cannot merge into one file; the eval report wins, loudly.
			fmt.Fprintln(os.Stderr, "-json: writing the evaluation report; the certification report is separate — rerun with -cert alone to export it")
		}
	}

	if *jsonOut != "" && out != nil {
		f, err := os.Create(*jsonOut)
		if err == nil {
			err = out.EncodeJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing report: %v\n", err)
			exit(1)
		}
	}
}

// failCode maps a run-ending error to an exit status: a blown -deadline
// is the inconclusive/truncated code 2 (no verdict, like an exhausted
// state budget), anything else is the plain failure code 1.
func failCode(err error) int {
	if errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintln(os.Stderr, "inconclusive: -deadline exceeded before the run finished")
		return 2
	}
	return 1
}

// parseShard parses "i/n" (empty: unsharded, n = 0).
func parseShard(s string) (i, n int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	if _, err := fmt.Sscanf(s, "%d/%d", &i, &n); err != nil || i < 1 || n < 1 || i > n {
		return 0, 0, fmt.Errorf("invalid -shard %q (want i/n with 1 <= i <= n)", s)
	}
	return i, n, nil
}

// runCert certifies the kernel corpus and writes the certification table
// to w with its warm-vs-cold footer (SC and TSO explorations performed;
// store deltas when an exploration cache is in play).
func runCert(ctx context.Context, w io.Writer, shardI, shardN, jobs int, opts []fenceplace.Option, dir string) (*corpus.Report, error) {
	src := corpus.CertSource()
	if shardN > 0 {
		var err error
		if src, err = corpus.Shard(src, shardI, shardN); err != nil {
			return nil, err
		}
	}

	runs := telemetry.Default().Counter("mc.explore_runs")
	scRuns := telemetry.Default().Counter("mc.sc_explore_runs")
	allBefore, scBefore := runs.Value(), scRuns.Value()
	var st *store.Store
	var stBefore store.Stats
	if dir != "" {
		if st, _ = store.Open(dir); st != nil {
			stBefore = st.Stats()
		}
	}

	runner := corpus.Runner{Certify: true, Workers: jobs, Options: opts}
	rep, err := runner.Run(ctx, src)
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	sb.WriteString(corpus.CertTable(rep))
	sc := scRuns.Value() - scBefore
	fmt.Fprintf(&sb, "\nSC explorations: %d\n", sc)
	fmt.Fprintf(&sb, "TSO explorations: %d\n", runs.Value()-allBefore-sc)
	if st != nil {
		d := st.Stats().Sub(stBefore)
		fmt.Fprintf(&sb, "exploration cache (%s): %d warm hits, %d cold misses, %d written, %d quarantined\n",
			st.Dir(), d.Hits, d.Misses, d.Puts, d.Quarantined)
	}
	fmt.Fprintln(w, sb.String())
	return rep, nil
}

// renderFigures prints the selected report-backed tables.
func renderFigures(rep *corpus.Report, all, fig7, fig8, fig9, fig10, manual bool) {
	if all || fig7 {
		fmt.Println(corpus.Fig7(rep))
	}
	if all || fig8 {
		fmt.Println(corpus.Fig8(rep))
	}
	if all || fig9 {
		fmt.Println(corpus.Fig9(rep))
	}
	if all || manual {
		fmt.Println(corpus.ManualTable(rep))
	}
	if all || fig10 {
		s, err := corpus.Fig10(rep)
		if err != nil {
			fmt.Fprintf(os.Stderr, "figure 10 failed: %v\n", err)
			os.Exit(1)
		}
		fmt.Println(s)
	}
}

// renderMerged loads shard reports, merges them and renders the requested
// tables from the combined data — the cross-process half of the sharded
// evaluation.
func renderMerged(files string, all, fig7, fig8, fig9, fig10, manual, cert bool) error {
	var merged *corpus.Report
	for _, name := range strings.Split(files, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		rep, err := corpus.DecodeJSON(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if merged == nil {
			merged = rep
			continue
		}
		if err := merged.Merge(rep); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	if merged == nil {
		return fmt.Errorf("-merge: no report files given")
	}
	if cert {
		fmt.Println(corpus.CertTable(merged))
	}
	renderFigures(merged, all, fig7, fig8, fig9, fig10, manual)
	return nil
}

// renderTable2 regenerates the paper's Table II: the signature breakdown
// of the nine synchronization kernels.
func renderTable2() string {
	t := stats.NewTable("kernel", "addr", "ctrl", "pure addr", "source")
	pureAddrAnywhere := false
	for _, m := range progs.ByKind(progs.SyncKernel) {
		sig := passes.NewSession(m.Default()).Signatures()
		t.Add(m.Name, mark(sig.HasAddress()), mark(sig.HasControl()),
			mark(sig.HasPureAddress()), m.Source)
		if sig.HasPureAddress() {
			pureAddrAnywhere = true
		}
	}
	out := "Table II: acquire signatures found in the synchronization kernels\n" + t.String()
	if !pureAddrAnywhere {
		out += "No kernel contains a pure-address acquire (matches the paper).\n"
	} else {
		out += "WARNING: a pure-address acquire appeared; the paper found none.\n"
	}
	return out
}

func mark(b bool) string {
	if b {
		return "yes"
	}
	return "no"
}

// renderFig2 regenerates the §2.4 worked example via exact delay-set analysis.
func renderFig2() string {
	p, isAcq := delayset.Fig2()
	delays := delayset.Delays(p)
	fullFences := delayset.MinimizeFences(delays)
	pruned := delayset.Prune(delays, isAcq)
	prunedFences := delayset.MinimizeFences(pruned)

	var sb strings.Builder
	sb.WriteString("Figure 2 (worked example, §2.4): exact Shasha-Snir delay-set analysis\n")
	writeDelays(&sb, "delay edges", delays)
	fmt.Fprintf(&sb, "full fence placement: %d fences at %v (paper: 5, F1..F5)\n", len(fullFences), fullFences)
	writeDelays(&sb, "pruned delay edges", pruned)
	fmt.Fprintf(&sb, "pruned fence placement: %d fences at %v (paper: 2, F2 and F4)\n", len(prunedFences), prunedFences)
	return sb.String()
}

// writeDelays writes one labelled, comma-separated line of delay edges.
func writeDelays(sb *strings.Builder, label string, delays []delayset.Delay) {
	fmt.Fprintf(sb, "%s (%d): ", label, len(delays))
	for i, d := range delays {
		if i > 0 {
			sb.WriteString(", ")
		}
		sb.WriteString(d.String())
	}
	sb.WriteByte('\n')
}
