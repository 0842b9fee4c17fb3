// Command fenceplace runs the fence-placement pipeline on a corpus program
// or on a textual IR file:
//
//	fenceplace -list                          # show the corpus
//	fenceplace -prog msqueue                  # analyze under all strategies
//	fenceplace -prog dekker -strategy control -dump   # print instrumented IR
//	fenceplace -prog msqueue -annotate        # emit minimal DRF annotations
//	fenceplace -file prog.ir -run             # analyze a file, then run it
//	fenceplace -prog msqueue -timing          # report per-pass wall times
//
// All strategies share one analysis session, so -strategy all runs the
// alias/escape/ordering passes once; -j bounds the per-function workers.
package main

import (
	"flag"
	"fmt"
	"os"

	"fenceplace"
	"fenceplace/internal/annotate"
	"fenceplace/internal/cli"
	"fenceplace/internal/progs"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list corpus programs")
		progName = flag.String("prog", "", "corpus program to analyze")
		file     = flag.String("file", "", "textual IR file to analyze")
		strategy = flag.String("strategy", "all", "pensieve | control | addresscontrol | all")
		dump     = flag.Bool("dump", false, "print the instrumented program")
		run      = flag.Bool("run", false, "execute the instrumented program on the TSO simulator")
		seed     = flag.Int64("seed", 0, "simulator seed for -run")
		annot    = flag.Bool("annotate", false, "emit minimal DRF annotations instead of fences (paper §1.3)")
		timing   = flag.Bool("timing", false, "report per-pass wall times in each summary")
		jobs     = flag.Int("j", 0, "per-function analysis workers (0 = GOMAXPROCS)")
		version  = flag.Bool("version", false, "print the build identity and exit")
	)
	flag.Parse()

	if *version {
		cli.Version()
		return
	}

	if *list {
		for _, m := range progs.All() {
			fmt.Printf("%-14s %-9s %s\n", m.Name, m.Kind, m.Desc)
		}
		return
	}

	var prog *fenceplace.Program
	switch {
	case *progName != "":
		m := progs.ByName(*progName)
		if m == nil {
			fmt.Fprintf(os.Stderr, "unknown program %q (try -list)\n", *progName)
			os.Exit(1)
		}
		prog = m.Default()
	case *file != "":
		src, err := os.ReadFile(*file)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		p, err := fenceplace.Parse(string(src))
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		prog = p
	default:
		flag.Usage()
		os.Exit(2)
	}

	if *annot {
		fmt.Print(annotate.Generate(prog).Report())
		return
	}

	strategies, err := fenceplace.ParseStrategies(*strategy)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// One analyzer for all strategies: the shared session computes the
	// strategy-independent passes once.
	var opts []fenceplace.Option
	if *timing {
		opts = append(opts, fenceplace.WithTiming())
	}
	if *jobs > 0 {
		opts = append(opts, fenceplace.WithWorkers(*jobs))
	}
	az := fenceplace.NewAnalyzer(prog, opts...)
	for _, s := range strategies {
		res := az.Analyze(s)
		fmt.Println(res.Summary())
		if err := res.Verify(); err != nil {
			fmt.Fprintf(os.Stderr, "verification failed: %v\n", err)
			os.Exit(1)
		}
		if *dump {
			fmt.Println(fenceplace.Format(res.Instrumented))
		}
		if *run {
			out := fenceplace.RunTSO(res.Instrumented, *seed)
			if out.Failed() {
				fmt.Printf("  TSO run FAILED: %v %v\n", out.Failures, out.Err)
				os.Exit(1)
			}
			fmt.Printf("  TSO run ok: %d steps, %d cycles, %d full fences executed\n",
				out.Steps, out.MaxCycles, out.FullFences)
		}
	}
}
