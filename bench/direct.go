package main

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"fenceplace"
	"fenceplace/corpus"
	"fenceplace/internal/mc"
	"fenceplace/internal/store"
	"fenceplace/internal/tso"
)

// The direct path of a traced run. It does the per-program work
// corpus.Runner does (analysis, plan verification, the Figure 10
// simulation or an SC baseline plus one TSO exploration per variant) but
// calls each layer's own entry point, so a span can be recorded around
// every call. Its rows must equal the Runner's, and the golden oracle
// checks them the same way.

// certPlan configures one direct certification.
type certPlan struct {
	strategies []fenceplace.Strategy
	analysis   []fenceplace.Option // extra analyzer options
	cfg        mc.Config           // what the facade's options resolve to
	cacheDir   string              // baseline store, "" for none
}

// analyze builds the analyzer with opts and evaluates the strategies
// (nil: the analyzer's default set), recording the per-pass self times
// when tracing.
func analyze(ctx context.Context, sc scope, prog *fenceplace.Program, strategies []fenceplace.Strategy, opts ...fenceplace.Option) ([]*fenceplace.Result, error) {
	if sc.rec != nil {
		opts = append(opts[:len(opts):len(opts)], fenceplace.WithTiming()) // never into the caller's array
	}
	var results []*fenceplace.Result
	err := sc.call(layerPasses, "analyze", func() (int64, error) {
		var err error
		results, err = fenceplace.NewAnalyzer(prog, opts...).AnalyzeAllCtx(ctx, strategies...)
		return 0, err
	})
	if err != nil {
		return nil, err
	}
	if sc.rec != nil {
		byPass := map[string]time.Duration{}
		for _, res := range results {
			for _, t := range res.Timings {
				byPass[t.Pass] = t.Duration // shared passes repeat with one value
			}
		}
		sc.rec.addPassTimings(byPass)
	}
	return results, nil
}

// verify re-checks every result's fence plan.
func verify(sc scope, results []*fenceplace.Result) error {
	for _, res := range results {
		if err := sc.call(layerFence, "verify", func() (int64, error) { return 0, res.Verify() }); err != nil {
			return fmt.Errorf("%s: fence plan verification failed: %w", res.Strategy, err)
		}
	}
	return nil
}

// certifyDirect certifies prog (and its expert build, when given) the way
// corpus.Runner{Certify: true} does and returns the report row.
func certifyDirect(ctx context.Context, sc scope, name string, prog, manual *fenceplace.Program, p certPlan) (*corpus.Row, error) {
	results, err := analyze(ctx, sc, prog, p.strategies, p.analysis...)
	if err != nil {
		return nil, err
	}
	if err := verify(sc, results); err != nil {
		return nil, err
	}
	base, err := baselineDirect(ctx, sc, prog, p)
	if err != nil {
		return nil, err
	}
	row := &corpus.Row{Program: name, EscReads: results[0].EscapingReads}
	if manual != nil {
		full, _ := manual.CountFences(false)
		v := corpus.Variant{Name: "Manual", FullFences: full}
		v.Cert = certCell(tsoDirect(ctx, sc, base, manual, p.cfg))
		row.Variants = append(row.Variants, v)
	}
	for _, res := range results {
		v := corpus.VariantFromResult(res)
		v.Cert = certCell(tsoDirect(ctx, sc, base, res.Instrumented, p.cfg))
		row.Variants = append(row.Variants, v)
	}
	return row, ctx.Err()
}

// baselineDirect loads the SC baseline from the store or explores and
// stores it, as passes.LoadOrExploreBaselineCtx does for the facade.
func baselineDirect(ctx context.Context, sc scope, prog *fenceplace.Program, p certPlan) (*mc.Baseline, error) {
	ncfg := p.cfg.Normalize()
	ncfg.Mode = tso.SC
	var st *store.Store
	var key string
	if p.cacheDir != "" {
		err := sc.call(layerStore, "open", func() (n int64, err error) {
			st, err = store.Open(p.cacheDir)
			return 0, err
		})
		if err != nil {
			return nil, err
		}
		_ = sc.call(layerCodec, "key", func() (int64, error) {
			key = mc.BaselineKey(prog, nil, ncfg).String()
			return 0, nil
		})
		var data []byte
		var hit bool
		_ = sc.call(layerStore, "get", func() (int64, error) {
			data, hit = st.GetCtx(ctx, key)
			return int64(len(data)), nil
		})
		if hit {
			var base *mc.Baseline
			err := sc.call(layerCodec, "decode", func() (n int64, err error) {
				base, err = mc.UnmarshalBaseline(prog, nil, ncfg, data)
				return int64(len(data)), err
			})
			if err == nil {
				return base, nil
			}
			st.Reject(key)
		}
	}
	var base *mc.Baseline
	err := sc.call(layerMCSC, "explore sc", func() (n int64, err error) {
		base, err = mc.NewBaselineCtx(ctx, prog, nil, ncfg)
		if err != nil {
			return 0, err
		}
		return base.SC.Visited, nil
	})
	if err != nil {
		return nil, err
	}
	if st != nil {
		var data []byte
		err := sc.call(layerCodec, "encode", func() (n int64, err error) {
			data, err = base.MarshalBinary()
			return int64(len(data)), err
		})
		if err == nil {
			_ = sc.call(layerStore, "put", func() (int64, error) {
				return int64(len(data)), st.PutCtx(ctx, key, data)
			})
		}
	}
	return base, nil
}

// certResult is one TSO certification's report or error.
type certResult struct {
	rep *mc.Report
	err error
}

// tsoDirect certifies one instrumented build against the baseline.
func tsoDirect(ctx context.Context, sc scope, base *mc.Baseline, inst *fenceplace.Program, cfg mc.Config) certResult {
	var r certResult
	r.err = sc.call(layerMCTSO, "explore tso", func() (int64, error) {
		rep, err := mc.CertifyAgainstCtx(ctx, base, inst, cfg)
		r.rep = rep
		if err != nil {
			return 0, err
		}
		return rep.VisitedTSO, nil
	})
	return r
}

// certCell renders a certification the way corpus.Runner does.
func certCell(r certResult) *corpus.Cert {
	switch {
	case errors.Is(r.err, fenceplace.ErrTruncated):
		return &corpus.Cert{Status: corpus.CertBudget, Err: r.err.Error()}
	case r.err != nil:
		return &corpus.Cert{Status: corpus.CertError, Err: r.err.Error()}
	}
	c := &corpus.Cert{
		Status:     corpus.CertCertified,
		SCOutcomes: r.rep.SCOutcomes, TSOOutcomes: r.rep.TSOOutcomes,
		VisitedSC: r.rep.VisitedSC, VisitedTSO: r.rep.VisitedTSO,
	}
	if !r.rep.Equivalent {
		c.Status = corpus.CertViolation
		c.Violations = len(r.rep.Violations)
	}
	return c
}

// evalRowDirect produces one evaluation row the way corpus.Runner{Seeds:
// 1} does: analysis, verification and one Figure 10 simulation per
// variant.
func evalRowDirect(ctx context.Context, sc scope, name string, prog, manual *fenceplace.Program) (*corpus.Row, error) {
	results, err := analyze(ctx, sc, prog, evalStrategies)
	if err != nil {
		return nil, err
	}
	if err := verify(sc, results); err != nil {
		return nil, err
	}
	row := &corpus.Row{Program: name, EscReads: results[0].EscapingReads}
	if manual != nil {
		full, _ := manual.CountFences(false)
		v := corpus.Variant{Name: "Manual", FullFences: full}
		if err := simulate(sc, &v, manual); err != nil {
			return nil, err
		}
		row.Variants = append(row.Variants, v)
	}
	for _, res := range results {
		v := corpus.VariantFromResult(res)
		if err := simulate(sc, &v, res.Instrumented); err != nil {
			return nil, err
		}
		row.Variants = append(row.Variants, v)
	}
	return row, nil
}

// evalStrategies is corpus.Runner's default strategy list, in its order.
var evalStrategies = []fenceplace.Strategy{fenceplace.PensieveOnly, fenceplace.AddressControl, fenceplace.Control}

// simulate runs the Figure 10 simulation (seed 0) on one variant.
func simulate(sc scope, v *corpus.Variant, inst *fenceplace.Program) error {
	return sc.call(layerTSO, "run", func() (int64, error) {
		out := tso.Run(inst, tso.Config{Mode: tso.TSO, Sched: tso.MinTime, Policy: tso.DrainRandom, Seed: 0})
		if out.Failed() {
			return 0, fmt.Errorf("%s: failed under TSO: failures=%v err=%v deadlock=%v",
				v.Name, out.Failures, out.Err, out.Deadlock)
		}
		v.Cycles = append(v.Cycles, out.MaxCycles)
		return out.MaxCycles, nil
	})
}

// renderTables renders the evaluation's Figures 7-10 and Manual table, the
// text the eval-static golden pins byte for byte.
func renderTables(rep *corpus.Report) (string, error) {
	fig10, err := corpus.Fig10(rep)
	if err != nil {
		return "", err
	}
	return strings.Join([]string{
		corpus.Fig7(rep), corpus.Fig8(rep), corpus.Fig9(rep), fig10, corpus.ManualTable(rep),
	}, "\n"), nil
}
