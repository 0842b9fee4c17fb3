package fence_test

import (
	"context"
	"testing"

	"fenceplace"
	"fenceplace/corpus"
	"fenceplace/internal/fence"
	"fenceplace/internal/ir"
)

// TestPathSearchMatchesOracleOnCorpus compares Verify's block-level path
// search with the instruction-level oracle on every kept ordering of every
// strategy, over the evaluation and certification corpora, at both fence
// strengths: on the strategy's instrumented build (endpoints mapped through
// Apply's correspondence) and on the unfenced program (identity map).
func TestPathSearchMatchesOracleOnCorpus(t *testing.T) {
	var d fence.PathDiff
	answers := map[bool]int{}
	for _, src := range []corpus.Source{corpus.EvalSource(), corpus.CertSource()} {
		for i := 0; i < src.Len(); i++ {
			az := fenceplace.NewAnalyzer(src.Build(i), fenceplace.WithCacheDir(""))
			results, err := az.AnalyzeAllCtx(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range results {
				kept := res.Kept()
				_, imap := res.Plan().Apply()
				identity := func(in *ir.Instr) *ir.Instr { return in }
				mapped := func(in *ir.Instr) *ir.Instr { return imap[in] }
				for _, f := range kept.Prog.Funcs {
					for _, o := range kept.ByFn[f] {
						for _, m := range []func(*ir.Instr) *ir.Instr{mapped, identity} {
							u, v := m(o.From), m(o.To)
							for _, full := range []bool{true, false} {
								got, want := d.Both(u, v, full)
								if got != want {
									t.Fatalf("%s/%s %s: [%s] -> [%s] needFull=%v: search %v, oracle %v",
										src.Name(i), res.Strategy, f.Name, o.From, o.To, full, got, want)
								}
								answers[got]++
							}
						}
					}
				}
			}
		}
	}
	if answers[true] == 0 || answers[false] == 0 {
		t.Fatalf("vacuous comparison: answers %v", answers)
	}
	t.Logf("answers: %v", answers)
}
