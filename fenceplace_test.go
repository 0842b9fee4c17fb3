package fenceplace

import (
	"context"
	"errors"
	"strings"
	"testing"

	"fenceplace/internal/fence"
	"fenceplace/internal/litmus"
	"fenceplace/internal/progs"
)

const mpSrc = `
program mp
global data 1
global data2 1
global flag 1
global sink 1
main main

func producer params=0 regs=1 {
entry:
  r0 = const 1
  store data, r0
  store data2, r0
  store flag, r0
  ret
}

func consumer params=0 regs=6 {
entry:
  r0 = const 1
  jmp spin
spin:
  r1 = load flag
  r2 = ne r1, r0
  br r2, spin, done
done:
  r3 = load data
  r4 = load data2
  r5 = add r3, r4
  store sink, r5
  assert r3, "data visible"
  ret
}

func main params=0 regs=2 {
entry:
  r0 = spawn producer()
  r1 = spawn consumer()
  join r0
  join r1
  ret
}
`

func TestAnalyzeMP(t *testing.T) {
	p := MustParse(mpSrc)
	ctl := Analyze(p, Control)
	if len(ctl.Acquires) != 1 {
		t.Fatalf("Control found %d acquires, want 1 (the flag spin)", len(ctl.Acquires))
	}
	if ctl.OrderingsKept >= ctl.OrderingsGenerated {
		t.Fatal("pruning removed nothing on MP")
	}
	if err := ctl.Verify(); err != nil {
		t.Fatal(err)
	}
	pen := Analyze(p, PensieveOnly)
	if pen.OrderingsKept != pen.OrderingsGenerated {
		t.Fatal("Pensieve must keep everything")
	}
	if len(pen.Acquires) != 0 {
		t.Fatal("Pensieve detects no acquires")
	}
	if ctl.FullFences > pen.FullFences {
		t.Fatalf("Control placed more fences (%d) than Pensieve (%d)", ctl.FullFences, pen.FullFences)
	}
	ac := Analyze(p, AddressControl)
	if ac.OrderingsKept < ctl.OrderingsKept {
		t.Fatal("A+C kept fewer orderings than Control")
	}
	if !strings.Contains(ctl.Summary(), "acquires detected") {
		t.Errorf("summary unhelpful: %s", ctl.Summary())
	}
}

func TestAnalyzeDoesNotMutateInput(t *testing.T) {
	p := MustParse(mpSrc)
	before := p.NumInstrs()
	res := Analyze(p, Control)
	if p.NumInstrs() != before {
		t.Fatal("Analyze mutated the input program")
	}
	if res.Instrumented == p {
		t.Fatal("Instrumented aliases the input")
	}
	if res.Instrumented.NumInstrs() <= before {
		t.Fatal("no fences inserted")
	}
}

func TestRoundTripThroughFormat(t *testing.T) {
	p := MustParse(mpSrc)
	res := Analyze(p, Control)
	text := Format(res.Instrumented)
	back, err := Parse(text)
	if err != nil {
		t.Fatalf("instrumented program does not reparse: %v", err)
	}
	if back.NumInstrs() != res.Instrumented.NumInstrs() {
		t.Fatal("reparse changed instruction count")
	}
}

func TestRunSCAndTSO(t *testing.T) {
	p := MustParse(mpSrc)
	res := Analyze(p, Control)
	for seed := int64(0); seed < 4; seed++ {
		if out := RunSC(p, seed); out.Failed() {
			t.Fatalf("SC run failed: %v", out.Failures)
		}
		if out := RunTSO(res.Instrumented, seed); out.Failed() {
			t.Fatalf("instrumented TSO run failed: %v", out.Failures)
		}
	}
}

func TestFacadeAgainstCorpus(t *testing.T) {
	// The public API must agree with the experiment pipeline on a few
	// representative corpus programs.
	for _, name := range []string{"msqueue", "peterson", "radix", "matrix"} {
		m := progs.ByName(name)
		if m == nil {
			t.Fatalf("missing corpus program %s", name)
		}
		p := m.Default()
		pen := Analyze(p, PensieveOnly)
		ctl := Analyze(p, Control)
		ac := Analyze(p, AddressControl)
		if !(ctl.FullFences <= ac.FullFences && ac.FullFences <= pen.FullFences) {
			t.Errorf("%s: fence monotonicity broken: %d/%d/%d",
				name, ctl.FullFences, ac.FullFences, pen.FullFences)
		}
		for _, r := range []*Result{pen, ctl, ac} {
			if err := r.Verify(); err != nil {
				t.Errorf("%s/%s: %v", name, r.Strategy, err)
			}
			out := RunTSO(r.Instrumented, 1)
			if out.Failed() {
				t.Errorf("%s/%s failed under TSO: %v", name, r.Strategy, out.Failures)
			}
		}
	}
}

// TestCertifyLitmusSuite is the certification acceptance test over the
// litmus tests: Pensieve's placement (no DRF assumption) must certify on
// every test, and the pruned variants on every DRF test. Unfenced SB is
// deliberately racy — the one program where the DRF-conditional guarantee
// does not apply — so Control must detect the non-SC outcome and produce a
// schedule, which is the certification layer doing its job.
func TestCertifyLitmusSuite(t *testing.T) {
	for _, lt := range litmus.All() {
		pen := Analyze(lt.Prog, PensieveOnly)
		rep, err := CertifyCtx(context.Background(), pen, lt.Threads)
		if err != nil {
			t.Fatalf("%s/Pensieve: %v", lt.Name, err)
		}
		if !rep.Equivalent {
			t.Errorf("%s/Pensieve: not certified: %s", lt.Name, rep)
		}

		ctl := Analyze(lt.Prog, Control)
		rep, err = CertifyCtx(context.Background(), ctl, lt.Threads)
		if err != nil {
			t.Fatalf("%s/Control: %v", lt.Name, err)
		}
		racy := lt.AllowedTSO && !lt.AllowedSC // unfenced SB only
		if racy {
			if rep.Equivalent {
				t.Errorf("%s/Control: racy program wrongly certified", lt.Name)
			} else if len(rep.Violations) == 0 || rep.Violations[0].Schedule == nil {
				t.Errorf("%s/Control: violation without counterexample schedule", lt.Name)
			}
		} else if !rep.Equivalent {
			t.Errorf("%s/Control: DRF litmus test not certified: %s", lt.Name, rep)
		}
	}
}

// TestCertifyCorpusKernels certifies whole corpus programs — spawn, join
// and spin loops included — which the legacy explorer could not execute at
// all. The Dekker-family kernels need their w→r fences, so certifying the
// unfenced legacy build must fail.
func TestCertifyCorpusKernels(t *testing.T) {
	for _, name := range []string{"dekker", "peterson"} {
		m := progs.ByName(name)
		pp := m.Defaults
		pp.Threads = 2
		pp.Size = 1
		res := Analyze(m.Build(pp), Control)
		rep, err := CertifyCtx(context.Background(), res, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !rep.Equivalent {
			t.Errorf("%s/Control: not certified: %s", name, rep)
		}

		// Negative control: the unfenced build must not certify.
		bare := *res
		bare.Instrumented = res.Prog
		rep, err = CertifyCtx(context.Background(), &bare, nil)
		if err != nil {
			t.Fatalf("%s unfenced: %v", name, err)
		}
		if rep.Equivalent {
			t.Errorf("%s: unfenced build wrongly certified SC-equivalent", name)
		}
	}
}

func TestCertifyMPFromSource(t *testing.T) {
	p := MustParse(mpSrc)
	res := Analyze(p, Control)
	rep, err := CertifyCtx(context.Background(), res, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Equivalent {
		t.Fatalf("instrumented MP not certified: %s", rep)
	}
}

// TestAnalyzerDifferential is the shared-session equivalence obligation:
// for every corpus program, AnalyzeAll on one Analyzer must produce output
// identical — acquires, orderings kept, fences placed, and the full
// instrumented program text — to three independent seed-style Analyze
// calls, each computing its passes from scratch. CI runs this under -race,
// which also exercises the parallel per-function and per-strategy fan-out.
func TestAnalyzerDifferential(t *testing.T) {
	strategies := []Strategy{PensieveOnly, AddressControl, Control}
	for _, m := range progs.EvalSet() {
		p := m.Default()
		all := NewAnalyzer(p).AnalyzeAll(strategies...)
		for i, res := range all {
			if res.Strategy != strategies[i] {
				t.Fatalf("%s: result %d is %s, want %s", m.Name, i, res.Strategy, strategies[i])
			}
			indep := Analyze(p, res.Strategy)
			name := m.Name + "/" + res.Strategy.String()
			if res.EscapingReads != indep.EscapingReads {
				t.Errorf("%s: %d escaping reads, independent %d", name, res.EscapingReads, indep.EscapingReads)
			}
			if len(res.Acquires) != len(indep.Acquires) {
				t.Errorf("%s: %d acquires, independent %d", name, len(res.Acquires), len(indep.Acquires))
			} else {
				for j := range res.Acquires {
					if res.Acquires[j] != indep.Acquires[j] {
						t.Errorf("%s: acquire %d differs: [%s] vs [%s]", name, j, res.Acquires[j], indep.Acquires[j])
					}
				}
			}
			if res.OrderingsGenerated != indep.OrderingsGenerated || res.OrderingsKept != indep.OrderingsKept {
				t.Errorf("%s: orderings %d/%d, independent %d/%d", name,
					res.OrderingsGenerated, res.OrderingsKept,
					indep.OrderingsGenerated, indep.OrderingsKept)
			}
			if res.FullFences != indep.FullFences || res.CompilerBarriers != indep.CompilerBarriers {
				t.Errorf("%s: fences %d+%d, independent %d+%d", name,
					res.FullFences, res.CompilerBarriers,
					indep.FullFences, indep.CompilerBarriers)
			}
			if got, want := Format(res.Instrumented), Format(indep.Instrumented); got != want {
				t.Errorf("%s: instrumented programs differ", name)
			}
		}
	}
}

// TestAnalyzerAllOrderAndFirstError pins AnalyzeAllCtx's contract inline
// (WithWorkers(1)) and fanned out: results in argument order (a repeated
// strategy included), and on failure the first error in argument order
// with no results.
func TestAnalyzerAllOrderAndFirstError(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"workers=1", []Option{WithWorkers(1)}},
		{"workers=2", []Option{WithWorkers(2)}},
		{"default", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			az := NewAnalyzer(MustParse(mpSrc), tc.opts...)
			order := []Strategy{Control, PensieveOnly, AddressControl, Control}
			all, err := az.AnalyzeAllCtx(context.Background(), order...)
			if err != nil {
				t.Fatal(err)
			}
			if len(all) != len(order) {
				t.Fatalf("%d results for %d strategies", len(all), len(order))
			}
			for i, res := range all {
				if res.Strategy != order[i] {
					t.Errorf("result %d is %s, want %s", i, res.Strategy, order[i])
				}
			}

			all, err = az.AnalyzeAllCtx(context.Background(), Control, Strategy(99), Strategy(98), PensieveOnly)
			if all != nil {
				t.Errorf("failed call returned %d results, want none", len(all))
			}
			if err == nil || !strings.Contains(err.Error(), "unknown strategy strategy(99)") {
				t.Errorf("error = %v, want the unknown-strategy error for strategy(99)", err)
			}
		})
	}
}

// TestAnalyzerTimingSummary: WithTiming surfaces per-pass wall times in
// Summary; without the option the summary stays a single line.
func TestAnalyzerTimingSummary(t *testing.T) {
	p := MustParse(mpSrc)
	az := NewAnalyzer(p, WithTiming())
	res := az.Analyze(Control)
	if len(res.Timings) == 0 {
		t.Fatal("WithTiming produced no pass timings")
	}
	s := res.Summary()
	for _, pass := range []string{"alias", "escape", "orders", "acquire/Control"} {
		if !strings.Contains(s, pass) {
			t.Errorf("timed summary missing pass %q:\n%s", pass, s)
		}
	}
	// Timings are filtered per strategy: Control's summary must not carry
	// other strategies' passes, and Pensieve's must not mention slicing.
	if strings.Contains(s, "Pensieve") || strings.Contains(s, "Address+Control") {
		t.Errorf("Control summary leaks other strategies' passes:\n%s", s)
	}
	pen := az.Analyze(PensieveOnly).Summary()
	if strings.Contains(pen, "acquire/") || strings.Contains(pen, "slice-index") {
		t.Errorf("Pensieve summary leaks acquire passes:\n%s", pen)
	}
	plain := NewAnalyzer(MustParse(mpSrc)).Analyze(Control)
	if len(plain.Timings) != 0 || strings.Contains(plain.Summary(), "passes:") {
		t.Error("untimed analyzer leaked timings into the summary")
	}
}

// TestVerifyCoverageError: a result whose fences are stripped must fail
// verification with a structured CoverageError naming the gap.
func TestVerifyCoverageError(t *testing.T) {
	p := MustParse(mpSrc)
	res := Analyze(p, Control)
	if err := res.Verify(); err != nil {
		t.Fatalf("covering plan rejected: %v", err)
	}
	// Rebuild a result with an empty plan over the same kept set: every
	// w->r ordering is now uncovered.
	broken := *res
	broken.plan = &fence.Plan{Prog: res.Prog}
	err := broken.Verify()
	if err == nil {
		t.Fatal("empty plan verified")
	}
	var ce *CoverageError
	if !errors.As(err, &ce) {
		t.Fatalf("error is %T, want *CoverageError: %v", err, err)
	}
	if ce.Fn == nil || ce.From == nil || ce.To == nil {
		t.Errorf("coverage error missing context: %+v", ce)
	}
	if !strings.Contains(ce.Error(), "uncovered") || !strings.Contains(ce.Error(), ce.Fn.Name) {
		t.Errorf("unhelpful coverage error: %v", ce)
	}
}

func TestStrategyNames(t *testing.T) {
	if PensieveOnly.String() != "Pensieve" || Control.String() != "Control" ||
		AddressControl.String() != "Address+Control" {
		t.Error("strategy names drifted; CLI output depends on them")
	}
}

// TestAnalyzeUnknownStrategy checks that a Strategy value outside the
// three placements is an input error, not a panic or a silent fallback.
func TestAnalyzeUnknownStrategy(t *testing.T) {
	_, err := NewAnalyzer(MustParse(mpSrc)).AnalyzeCtx(context.Background(), Strategy(7))
	var ie *InternalError
	if err == nil || errors.As(err, &ie) {
		t.Fatalf("AnalyzeCtx(Strategy(7)) = %v, want an unknown-strategy error", err)
	}
}

// TestParseStrategies pins the one strategy-word parser the CLIs and the
// service share: every accepted spelling, the "all" order, and an error
// naming the valid choices for anything else.
func TestParseStrategies(t *testing.T) {
	for word, want := range map[string][]Strategy{
		"pensieve":        {PensieveOnly},
		"Control":         {Control},
		" ac ":            {AddressControl},
		"address+control": {AddressControl},
		"addresscontrol":  {AddressControl},
		"ALL":             {PensieveOnly, AddressControl, Control},
	} {
		got, err := ParseStrategies(word)
		if err != nil || len(got) != len(want) {
			t.Errorf("ParseStrategies(%q) = %v, %v; want %v", word, got, err, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("ParseStrategies(%q) = %v, want %v", word, got, want)
			}
		}
	}
	for _, word := range []string{"", "bogus"} {
		if _, err := ParseStrategies(word); err == nil || !strings.Contains(err.Error(), "unknown strategy") {
			t.Errorf("ParseStrategies(%q) error = %v, want an unknown-strategy error", word, err)
		}
	}
}
