// Command paperbench regenerates every table and figure of the paper's
// evaluation over the corpus:
//
//	paperbench              # everything
//	paperbench -table2      # Table II only
//	paperbench -fig7 -fig9  # selected figures
//	paperbench -seeds 3     # average Figure 10 over 3 simulator seeds
//	paperbench -j 4         # analyze the corpus with 4 parallel workers
//	paperbench -cert -json c.json  # certification table; its report as JSON
//
// The evaluation runs in one process through the public fenceplace/corpus
// package: each report is one corpus.Runner run, and its rows, sorted by
// corpus index, render the tables. The figures and their report are
// identical at every -j; so are the certification table and its report
// when exploration runs on one core (GOMAXPROCS=1), since state counts
// above one exploration worker depend on the schedule.
//
// -json writes the run's corpus Report: the evaluation report when a
// figure ran, else the certification report. Table II and Figure 2 produce
// no report, so -json with only -table2 or -fig2 is a usage error (exit 2),
// as is -seeds below 1 when Figure 10 renders. Both are rejected before
// any work runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

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

func main() { os.Exit(run(os.Args[1:])) }

// run is the whole command; it returns the exit status so the deferred
// telemetry cleanup runs before main exits.
func run(args []string) int {
	fs := flag.NewFlagSet("paperbench", flag.ExitOnError)
	var (
		table2  = fs.Bool("table2", false, "Table II: acquire signatures in sync kernels")
		fig2    = fs.Bool("fig2", false, "worked example (§2.4): delay set and fence counts")
		fig7    = fs.Bool("fig7", false, "Figure 7: acquires as % of escaping reads")
		fig8    = fs.Bool("fig8", false, "Figure 8: ordering counts by type")
		fig9    = fs.Bool("fig9", false, "Figure 9: full fences remaining on x86-TSO")
		fig10   = fs.Bool("fig10", false, "Figure 10: simulated execution time vs manual")
		manual  = fs.Bool("manual", false, "manual fence counts (§5.3)")
		seeds   = fs.Int("seeds", 1, "simulator seeds averaged in Figure 10")
		cert    = fs.Bool("cert", false, "certification column: model-check SC-equivalence of every placement")
		budget  = fs.Int64("certbudget", 1<<21, "model-checker state budget per exploration")
		jobs    = fs.Int("j", 0, "corpus analysis workers (0 = GOMAXPROCS)")
		jsonOut = fs.String("json", "", "write the run's corpus Report JSON to this file")
	)
	fl := cli.Register(fs, cli.Store|cli.Run)
	if !fl.Parse(fs, args) {
		return 0
	}

	all := !*table2 && !*fig2 && !*fig7 && !*fig8 && !*fig9 && !*fig10 && !*manual && !*cert
	eval := all || *fig7 || *fig8 || *fig9 || *fig10 || *manual
	switch {
	case *jsonOut != "" && !eval && !*cert:
		fmt.Fprintln(os.Stderr, "-json: Table II and Figure 2 produce no report; select a figure, -manual or -cert")
		return 2
	case *seeds < 1 && (all || *fig10):
		fmt.Fprintf(os.Stderr, "-seeds %d: Figure 10 needs at least one simulator seed\n", *seeds)
		return 2
	}

	ctx, finish, err := fl.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer finish()

	if all || *table2 {
		fmt.Println(renderTable2())
	}

	// The runner options and the -cert footer's store handle see the one
	// resolved store directory.
	dir := fl.CacheDir()
	opts := append([]fenceplace.Option{fenceplace.WithMaxStates(*budget)}, fl.StoreOptions()...)

	var out *corpus.Report
	if all || *cert {
		// Exhaustive certification runs the sync kernels at a reduced
		// instantiation (2 threads) so the whole state space fits. Rows are
		// analyzed in parallel; per row, one SC exploration serves as the
		// baseline all four variants certify against. With a warm
		// -cache-dir both the baselines and the variants' TSO outcome sets
		// are served from the persistent store without exploring.
		rep, err := runCert(ctx, os.Stdout, *jobs, opts, dir)
		if err != nil {
			return cli.FailCode(err, 1)
		}
		out = rep
	}
	if all || *fig2 {
		fmt.Println(renderFig2())
	}
	if eval {
		runner := corpus.Runner{Seeds: *seeds, Workers: *jobs, Options: opts}
		rep, err := runner.Run(ctx, corpus.EvalSource())
		if err != nil {
			return cli.FailCode(err, 1)
		}
		out = rep
		if err := renderFigures(rep, all, *fig7, *fig8, *fig9, *fig10, *manual); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if (all || *cert) && *jsonOut != "" {
			// The cert and eval reports come from different sources and
			// one file holds one report; the eval report wins, loudly.
			fmt.Fprintln(os.Stderr, "-json: writing the evaluation report; the certification report is separate — rerun with -cert alone to export it")
		}
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err == nil {
			err = out.EncodeJSON(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "writing report: %v\n", err)
			return 1
		}
	}
	return 0
}

// runCert certifies the kernel corpus and writes the certification table
// to w with its warm-vs-cold footer (SC and TSO explorations performed;
// store deltas when an exploration cache is in play).
func runCert(ctx context.Context, w io.Writer, jobs int, opts []fenceplace.Option, dir string) (*corpus.Report, error) {
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
	rep, err := runner.Run(ctx, corpus.CertSource())
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
func renderFigures(rep *corpus.Report, all, fig7, fig8, fig9, fig10, manual bool) error {
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
			return fmt.Errorf("figure 10 failed: %w", err)
		}
		fmt.Println(s)
	}
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
