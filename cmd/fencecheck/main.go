// Command fencecheck certifies a fence placement: it runs the static
// pipeline on a program, then model-checks that the instrumented build
// under x86-TSO reaches exactly the final states of the original build
// under sequential consistency, printing the verdict and a counterexample
// schedule when certification fails.
//
//	fencecheck -prog dekker                     # certify Control fences on a corpus program
//	fencecheck -prog peterson -strategy pensieve
//	fencecheck -prog dekker -strategy all       # all three placements, one shared SC baseline
//	fencecheck -prog dekker -unfenced           # show why the legacy build needs fences
//	fencecheck -file prog.ir -entry t0,t1       # litmus-style: explicit flat threads
//	fencecheck -file treiber.go -strategy all   # restricted real-Go source, lowered by the frontend
//	fencecheck -prog lamport -threads 2 -budget 4194304
//	fencecheck -prog dekker -strategy all -json # machine-readable corpus Report row
//
// With -strategy all the three placements are certified against a single
// SC exploration of the original program (the analyzer session's memoized
// baseline), so the run costs 1 SC + 3 TSO explorations instead of 3+3.
// With -cache-dir (or $FENCEPLACE_CACHE_DIR) the baseline and every
// variant's TSO outcome set additionally persist in a content-addressed
// store, so repeated invocations skip both explorations (inspect the store
// with cmd/fencecache).
//
// -json emits the certification as a fenceplace/corpus Report (one Row,
// cert verdicts per strategy) on stdout instead of prose; such reports
// merge with other corpus reports and feed the same table renderers.
//
// Exit status is three-valued so scripts can tell verdicts from
// breakage: 0 every certified placement is SC-equivalent; 1 some
// placement is provably not SC-equivalent; 2 the verdict is unknown —
// usage error, exploration failure, or a state budget exhausted
// (inconclusive is not a verdict).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"fenceplace"
	"fenceplace/corpus"
	"fenceplace/internal/cli"
	"fenceplace/internal/progs"
	"fenceplace/internal/telemetry"
)

const (
	exitEquivalent    = 0 // every certified placement is SC-equivalent
	exitNotEquivalent = 1 // a placement is provably not SC-equivalent
	exitError         = 2 // usage, exploration error, or truncated/inconclusive
)

func main() {
	var (
		progName = flag.String("prog", "", "corpus program to certify")
		file     = flag.String("file", "", "textual IR file to certify")
		strategy = flag.String("strategy", "control", "pensieve | control | addresscontrol | all")
		entry    = flag.String("entry", "", "comma-separated flat thread functions (litmus mode; default: explore from main)")
		threads  = flag.Int("threads", 2, "worker threads for corpus instantiation")
		size     = flag.Int64("size", 0, "problem size for corpus instantiation (0 = reduced default)")
		budget   = flag.Int64("budget", 0, "model-checker state budget per exploration (0 = default 2M)")
		workers  = flag.Int("workers", 0, "exploration workers (0 = GOMAXPROCS)")
		exact    = flag.Bool("exact", false, "exact string-keyed seen sets instead of fingerprints (slow oracle mode)")
		unfenced = flag.Bool("unfenced", false, "certify the unfenced legacy build instead of the instrumented one")
		cacheDir = flag.String("cache-dir", "", "persistent exploration store for SC baselines and TSO outcome sets (default $FENCEPLACE_CACHE_DIR; empty = no persistence)")
		spillDir = flag.String("spill-dir", "", "scratch area for seen-set spill under -memcap (default $FENCEPLACE_SPILL_DIR; empty = keep sealed runs in RAM)")
		memCap   = flag.Int("memcap", 0, "memory budget in arena words; the seen set spills past it (0 = default 1<<22, negative = uncapped)")
		deadline = flag.Duration("deadline", 0, "wall-clock budget for the whole run; exceeding it aborts with the inconclusive exit code 2 (0 = none)")
		jsonOut  = flag.Bool("json", false, "emit the certification as a corpus Report row (JSON) instead of prose")
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
		// oversized exploration ends in the inconclusive exit code instead
		// of a hang. Cancellation wins against I/O retries within ~100ms.
		var cancelDeadline context.CancelFunc
		ctx, cancelDeadline = context.WithTimeout(ctx, *deadline)
		defer cancelDeadline()
	}

	// Telemetry cleanup must precede every os.Exit (which skips defers):
	// the trace file is only valid JSON once finalized, and the -metrics
	// snapshot is written at cleanup time. exit routes all terminations
	// through it.
	var metricsW io.Writer
	if *metrics {
		metricsW = os.Stderr
	}
	cleanup, err := telemetry.Mount(telemetry.MountConfig{
		TracePath: *traceOut, PprofAddr: *pprof, Metrics: metricsW,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(exitError)
	}
	exit := func(code int) {
		if err := cleanup(); err != nil {
			fmt.Fprintln(os.Stderr, "telemetry:", err)
		}
		os.Exit(code)
	}

	name, prog, err := loadProgram(*progName, *file, *threads, *size)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		exit(exitError)
	}

	var strategies []fenceplace.Strategy
	switch strings.ToLower(*strategy) {
	case "pensieve":
		strategies = []fenceplace.Strategy{fenceplace.PensieveOnly}
	case "control":
		strategies = []fenceplace.Strategy{fenceplace.Control}
	case "addresscontrol", "address+control", "ac":
		strategies = []fenceplace.Strategy{fenceplace.AddressControl}
	case "all":
		strategies = []fenceplace.Strategy{
			fenceplace.PensieveOnly, fenceplace.AddressControl, fenceplace.Control,
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown strategy %q (valid choices: pensieve, control, addresscontrol, all)\n", *strategy)
		exit(exitError)
	}

	var entries []string
	if *entry != "" {
		entries = strings.Split(*entry, ",")
	}
	opts := []fenceplace.Option{
		fenceplace.WithMaxStates(*budget),
		fenceplace.WithWorkers(*workers),
	}
	if *exact {
		opts = append(opts, fenceplace.WithExactSeen())
	}
	if *cacheDir != "" {
		opts = append(opts, fenceplace.WithCacheDir(*cacheDir))
	}
	if *spillDir != "" {
		opts = append(opts, fenceplace.WithSpillDir(*spillDir))
	}
	if *memCap != 0 {
		opts = append(opts, fenceplace.WithMemoryCap(*memCap))
	}
	// Pin the configuration (environment defaults included) once for the
	// whole invocation.
	opts = fenceplace.Resolved(opts...)

	if *jsonOut {
		if *unfenced {
			fmt.Fprintln(os.Stderr, "-json does not support -unfenced (the unfenced build is no placement variant)")
			exit(exitError)
		}
		exit(runJSON(ctx, name, prog, strategies, entries, opts))
	}
	exit(runText(ctx, prog, strategies, entries, opts, *unfenced))
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
		fmt.Fprintln(os.Stderr, err)
		return exitError
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
		fmt.Fprintln(os.Stderr, err)
		return exitError
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
	failed := false
	for _, res := range results {
		fmt.Println(res.Summary())
		rep, err := fenceplace.CertifyCtx(ctx, res, entries, opts...)
		if err != nil {
			if errors.Is(err, fenceplace.ErrTruncated) {
				fmt.Fprintf(os.Stderr, "inconclusive: %v\n", err)
				fmt.Fprintln(os.Stderr, "raise -budget or shrink -threads/-size to close the state space")
				return exitError
			}
			if errors.Is(err, context.DeadlineExceeded) {
				fmt.Fprintln(os.Stderr, "inconclusive: -deadline exceeded before certification finished")
				return exitError
			}
			fmt.Fprintln(os.Stderr, err)
			return exitError
		}
		fmt.Println(rep)
		if !rep.Equivalent {
			if ce := rep.Counterexample(); ce != "" {
				fmt.Print(ce)
			}
			failed = true
		}
	}
	if failed {
		return exitNotEquivalent
	}
	return exitEquivalent
}

func loadProgram(progName, file string, threads int, size int64) (string, *fenceplace.Program, error) {
	switch {
	case progName != "":
		m := progs.ByName(progName)
		if m == nil {
			return "", nil, fmt.Errorf("unknown program %q (see fenceplace -list)", progName)
		}
		pp := m.Defaults
		pp.Threads = threads
		if size > 0 {
			pp.Size = size
		} else if pp.Size > 2 {
			pp.Size = 2 // exhaustive exploration needs small instantiations
		}
		return progName, m.Build(pp), nil
	case file != "":
		src, err := os.ReadFile(file)
		if err != nil {
			return "", nil, fmt.Errorf("cannot read %s: %w\nvalid inputs: a textual IR file (.ir) or a restricted-Go source file (.go)", file, err)
		}
		format := "textual IR"
		if filepath.Ext(file) == ".go" {
			format = "Go source"
		}
		if len(strings.TrimSpace(string(src))) == 0 {
			return "", nil, fmt.Errorf("%s is empty (detected format: %s by extension)\nvalid inputs: a textual IR file (.ir) or a restricted-Go source file (.go)", file, format)
		}
		var p *fenceplace.Program
		if format == "Go source" {
			p, err = fenceplace.ParseGo(file, src)
		} else {
			p, err = fenceplace.Parse(string(src))
		}
		if err != nil {
			return "", nil, fmt.Errorf("%s (detected format: %s):\n%w", file, format, err)
		}
		name := strings.TrimSuffix(filepath.Base(file), filepath.Ext(file))
		return name, p, nil
	}
	flag.Usage()
	return "", nil, fmt.Errorf("one of -prog or -file is required")
}
