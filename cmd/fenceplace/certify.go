package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"

	"fenceplace"
	"fenceplace/corpus"
	"fenceplace/internal/cli"
	"fenceplace/internal/progs"
)

// certify's exit status is three-valued so scripts can tell verdicts from
// breakage. Inconclusive is not a verdict: a state budget exhausted or a
// blown -deadline exits 2 like a usage or exploration error.
const (
	exitEquivalent    = 0 // every certified placement is SC-equivalent
	exitNotEquivalent = 1 // a placement is provably not SC-equivalent
	exitError         = 2 // usage, exploration error, or truncated/inconclusive
)

// certify runs the static pipeline on a program, then model-checks that
// the instrumented build under x86-TSO reaches exactly the final states
// of the original build under SC, printing the verdict and a
// counterexample schedule when certification fails.
//
// With -strategy all the three placements certify against a single SC
// exploration of the original program, so the run costs 1 SC + 3 TSO
// explorations instead of 3+3. With -cache-dir (or $FENCEPLACE_CACHE_DIR)
// the baseline and every variant's TSO outcome set persist in a
// content-addressed store, so repeated invocations skip both explorations
// (inspect the store with cmd/fencecache). -json emits a corpus Report
// (one Row, cert verdicts per strategy) that merges with other corpus
// reports and feeds the same table renderers.
func certify(args []string) int {
	fs := flag.NewFlagSet("fenceplace certify", flag.ExitOnError)
	progName, file := inputFlags(fs, "certify")
	var (
		strategy = fs.String("strategy", "control", "pensieve | control | addresscontrol | all")
		entry    = fs.String("entry", "", "comma-separated flat thread functions (litmus mode; default: explore from main)")
		threads  = fs.Int("threads", 2, "worker threads for corpus instantiation")
		size     = fs.Int64("size", 0, "problem size for corpus instantiation (0 = reduced default)")
		budget   = fs.Int64("budget", 0, "model-checker state budget per exploration (<= 0 = default 2M)")
		workers  = fs.Int("workers", 0, "exploration workers (0 = GOMAXPROCS)")
		exact    = fs.Bool("exact", false, "exact string-keyed seen sets instead of fingerprints (slow oracle mode)")
		unfenced = fs.Bool("unfenced", false, "certify the unfenced legacy build instead of the instrumented one")
		memCap   = fs.Int("memcap", 0, "per-state arena limit in words; an allocation past it fails the run (0 = default 1<<22, negative = uncapped)")
		jsonOut  = fs.Bool("json", false, "emit the certification as a corpus Report row (JSON) instead of prose")
	)
	fl := cli.Register(fs, cli.Store|cli.Run)
	if !fl.Parse(fs, args) {
		return exitEquivalent
	}
	ctx, finish, err := fl.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitError
	}
	defer finish()

	name, prog, err := loadProgram(*progName, *file, func(m *progs.Meta) *fenceplace.Program {
		return m.Build(m.CertParams(*threads, *size))
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitError
	}
	strategies, err := fenceplace.ParseStrategies(*strategy)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitError
	}

	var entries []string
	if *entry != "" {
		entries = strings.Split(*entry, ",")
	}
	opts := append([]fenceplace.Option{
		fenceplace.WithMaxStates(*budget),
		fenceplace.WithWorkers(*workers),
		fenceplace.WithMemoryCap(*memCap),
	}, fl.StoreOptions()...)
	if *exact {
		opts = append(opts, fenceplace.WithExactSeen())
	}

	if *jsonOut {
		if *unfenced {
			fmt.Fprintln(os.Stderr, "-json does not support -unfenced (the unfenced build is no placement variant)")
			return exitError
		}
		return runJSON(ctx, name, prog, strategies, entries, opts)
	}
	return runText(ctx, prog, strategies, entries, opts, *unfenced)
}

// runJSON certifies through the corpus runner and emits the Report row.
func runJSON(ctx context.Context, name string, prog *fenceplace.Program, strategies []fenceplace.Strategy, entries []string, opts []fenceplace.Option) int {
	runner := corpus.Runner{
		Strategies: strategies,
		Certify:    true,
		Threads:    entries,
		Workers:    1,
		Options:    opts,
	}
	rep, err := runner.Run(ctx, corpus.SingleSource(name, prog, nil))
	if err != nil {
		return cli.FailCode(err, exitError)
	}
	if err := rep.EncodeJSON(os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return exitError
	}
	code := exitEquivalent
	for _, row := range rep.Rows {
		for _, v := range row.Variants {
			if v.Cert == nil {
				continue
			}
			switch v.Cert.Status {
			case corpus.CertViolation:
				if code == exitEquivalent {
					code = exitNotEquivalent
				}
			case corpus.CertBudget, corpus.CertError:
				code = exitError
			}
		}
	}
	return code
}

// runText is the prose mode: per-strategy summary, verdict and
// counterexample schedule.
func runText(ctx context.Context, prog *fenceplace.Program, strategies []fenceplace.Strategy, entries []string, opts []fenceplace.Option, unfenced bool) int {
	// One analyzer session for every strategy: the static passes run once,
	// and so does the certification baseline's SC exploration.
	az := fenceplace.NewAnalyzer(prog)
	results, err := az.AnalyzeAllCtx(ctx, strategies...)
	if err != nil {
		return cli.FailCode(err, exitError)
	}
	if unfenced {
		// Certify the legacy build against itself: this demonstrates what
		// the fences buy by exposing the program's raw TSO behaviors. The
		// verdict is strategy-independent, so one certification suffices
		// even under -strategy all.
		res := results[0]
		res.Instrumented = res.Prog
		results = results[:1]
	}
	code := exitEquivalent
	for _, res := range results {
		fmt.Println(res.Summary())
		rep, err := fenceplace.CertifyCtx(ctx, res, entries, opts...)
		if errors.Is(err, fenceplace.ErrTruncated) {
			fmt.Fprintf(os.Stderr, "inconclusive: %v\n", err)
			fmt.Fprintln(os.Stderr, "raise -budget or shrink -threads/-size to close the state space")
			return exitError
		}
		if err != nil {
			return cli.FailCode(err, exitError)
		}
		fmt.Println(rep)
		if !rep.Equivalent {
			fmt.Print(rep.Counterexample())
			code = exitNotEquivalent
		}
	}
	return code
}
