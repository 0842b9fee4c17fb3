// Command fenceplace places fences on a legacy program and checks that
// the placement restores sequential consistency under x86-TSO:
//
//	fenceplace analyze -list                       # show the corpus
//	fenceplace analyze -prog msqueue               # place fences under all strategies
//	fenceplace analyze -prog dekker -strategy control -dump -run
//	fenceplace analyze -prog msqueue -annotate     # emit minimal DRF annotations
//	fenceplace analyze -file treiber.go -timing    # restricted real-Go source, per-pass wall times
//	fenceplace certify -prog dekker                # certify Control fences on a corpus program
//	fenceplace certify -prog dekker -strategy all  # all three placements, one shared SC baseline
//	fenceplace certify -prog dekker -unfenced      # show why the legacy build needs fences
//	fenceplace certify -file prog.ir -entry t0,t1  # litmus-style: explicit flat threads
//	fenceplace certify -prog dekker -strategy all -json  # machine-readable corpus Report row
//	fenceplace litmus                              # litmus outcomes on the SC and TSO machines
//
// Both analyze and certify read a program from -prog (a corpus program)
// or -file (textual IR, or restricted Go when the name ends in .go). A
// corpus program is instantiated at its default parameters for analyze
// and at the reduced -threads/-size instance for certify, whose state
// space must close. An input error exits 2 in both.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"fenceplace"
	"fenceplace/internal/annotate"
	"fenceplace/internal/cli"
	"fenceplace/internal/litmus"
	"fenceplace/internal/passes"
	"fenceplace/internal/progs"
	"fenceplace/internal/stats"
	"fenceplace/internal/tso"
)

const usage = `usage: fenceplace <command> [flags]

commands:
  analyze   place fences on a program under one or all strategies
  certify   model-check that a placement is SC-equivalent under x86-TSO
  litmus    report which litmus-test outcomes SC and TSO allow

Run 'fenceplace <command> -h' for the command's flags.
`

func main() {
	commands := map[string]func([]string) int{"analyze": analyze, "certify": certify, "litmus": runLitmus}
	if len(os.Args) < 2 || commands[os.Args[1]] == nil {
		fmt.Fprint(os.Stderr, usage)
		os.Exit(2)
	}
	os.Exit(commands[os.Args[1]](os.Args[2:]))
}

// inputFlags registers -prog and -file, the program source of analyze
// and certify.
func inputFlags(fs *flag.FlagSet, verb string) (progName, file *string) {
	return fs.String("prog", "", "corpus program to "+verb+" (see fenceplace analyze -list)"),
		fs.String("file", "", "textual IR file, or restricted-Go source file ending in .go, to "+verb)
}

// loadProgram reads the program named by -prog or -file and returns it
// with its name. build instantiates a corpus program.
func loadProgram(progName, file string, build func(*progs.Meta) *fenceplace.Program) (string, *fenceplace.Program, error) {
	const valid = "valid inputs: a textual IR file (.ir) or a restricted-Go source file (.go)"
	switch {
	case progName != "":
		m := progs.ByName(progName)
		if m == nil {
			return "", nil, fmt.Errorf("unknown program %q (see fenceplace analyze -list)", progName)
		}
		return progName, build(m), nil
	case file != "":
		src, err := os.ReadFile(file)
		if err != nil {
			return "", nil, fmt.Errorf("cannot read %s: %w\n%s", file, err, valid)
		}
		format := "textual IR"
		if filepath.Ext(file) == ".go" {
			format = "Go source"
		}
		if len(strings.TrimSpace(string(src))) == 0 {
			return "", nil, fmt.Errorf("%s is empty (detected format: %s by extension)\n%s", file, format, valid)
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
		return strings.TrimSuffix(filepath.Base(file), filepath.Ext(file)), p, nil
	}
	return "", nil, errors.New("one of -prog or -file is required")
}

// analyze runs the static pipeline and prints one summary per strategy.
// All strategies share one analysis session, so -strategy all runs the
// alias/escape/ordering passes once.
func analyze(args []string) int {
	fs := flag.NewFlagSet("fenceplace analyze", flag.ExitOnError)
	progName, file := inputFlags(fs, "analyze")
	var (
		list     = fs.Bool("list", false, "list corpus programs")
		strategy = fs.String("strategy", "all", "pensieve | control | addresscontrol | all")
		dump     = fs.Bool("dump", false, "print the instrumented program")
		run      = fs.Bool("run", false, "execute the instrumented program on the TSO simulator")
		seed     = fs.Int64("seed", 0, "simulator seed for -run")
		annot    = fs.Bool("annotate", false, "emit minimal DRF annotations instead of fences (paper §1.3)")
		timing   = fs.Bool("timing", false, "report per-pass wall times in each summary")
		workers  = fs.Int("workers", 0, "per-function analysis workers (0 = GOMAXPROCS)")
	)
	if !cli.Register(fs, 0).Parse(fs, args) {
		return 0
	}
	strategies, err := fenceplace.ParseStrategies(*strategy)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *annot && (*dump || *run || *timing || len(strategies) == 1) {
		fmt.Fprintln(os.Stderr, "-annotate prints annotations, not fences; it takes no -dump, -run, -timing or -strategy other than all")
		return 2
	}

	if *list {
		for _, m := range progs.All() {
			fmt.Printf("%-14s %-9s %s\n", m.Name, m.Kind, m.Desc)
		}
		return 0
	}
	_, prog, err := loadProgram(*progName, *file, (*progs.Meta).Default)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	if *annot {
		fmt.Print(annotate.Generate(passes.NewSession(prog, passes.Workers(*workers))).Report())
		return 0
	}

	opts := []fenceplace.Option{fenceplace.WithWorkers(*workers)}
	if *timing {
		opts = append(opts, fenceplace.WithTiming())
	}
	az := fenceplace.NewAnalyzer(prog, opts...)
	for _, s := range strategies {
		res := az.Analyze(s)
		fmt.Println(res.Summary())
		if err := res.Verify(); err != nil {
			fmt.Fprintf(os.Stderr, "verification failed: %v\n", err)
			return 1
		}
		if *dump {
			fmt.Println(fenceplace.Format(res.Instrumented))
		}
		if *run {
			out := fenceplace.RunTSO(res.Instrumented, *seed)
			if out.Failed() {
				fmt.Printf("  TSO run FAILED: %v %v\n", out.Failures, out.Err)
				return 1
			}
			fmt.Printf("  TSO run ok: %d steps, %d cycles, %d full fences executed\n",
				out.Steps, out.MaxCycles, out.FullFences)
		}
	}
	return 0
}

// runLitmus explores the classic memory-model litmus tests on the
// built-in SC and TSO machines; it exits 1 when an outcome's
// reachability differs from what the model allows.
func runLitmus(args []string) int {
	fs := flag.NewFlagSet("fenceplace litmus", flag.ExitOnError)
	if !cli.Register(fs, 0).Parse(fs, args) {
		return 0
	}
	obs := map[bool]string{true: "observed", false: "forbidden"}
	t := stats.NewTable("test", "outcome", "SC", "TSO", "verdict")
	code := 0
	for _, lt := range litmus.All() {
		sc, err := lt.Observed(tso.SC)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		ts, err := lt.Observed(tso.TSO)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		verdict := "ok"
		if sc != lt.AllowedSC || ts != lt.AllowedTSO {
			verdict = "UNEXPECTED"
			code = 1
		}
		t.Add(lt.Name, lt.Desc, obs[sc], obs[ts], verdict)
	}
	fmt.Print(t.String())
	return code
}
