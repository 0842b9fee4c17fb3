package main

import (
	"context"
	"fmt"
	"os"
	"sort"

	"fenceplace"
	"fenceplace/corpus"
)

// updateGolden records the oracle from one run of every workload's public
// path and writes it under bench/testdata. Review the diff before
// committing it: the oracle is only as good as the run it was taken from.
func updateGolden(ctx context.Context, cfg *config) error {
	tmp, err := os.MkdirTemp("", "fencebench-golden-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	g := &golden{Fences: map[string]map[string]int{}}
	e := &env{root: cfg.root, seed: cfg.seed, tmp: tmp, golden: g}

	certRep, err := (&corpus.Runner{Certify: true, Options: noPersistence}).Run(ctx, corpus.CertSource())
	if err != nil {
		return err
	}
	for i := range certRep.Rows {
		g.record("cert-kernels/"+certRep.Rows[i].Program, &certRep.Rows[i])
	}

	fx, err := openCertLarge(ctx, e)
	if err != nil {
		return err
	}
	large := fx.(*certLarge)
	rep, err := (&corpus.Runner{
		Strategies: []fenceplace.Strategy{fenceplace.Control}, Certify: true, Workers: 1, Options: large.options(),
	}).Run(ctx, corpus.SingleSource(largeProgram, largeBuild(), nil))
	fx.close()
	if err != nil {
		return err
	}
	g.record("cert-large/"+largeProgram, &rep.Rows[0])

	evalRep, err := (&corpus.Runner{Seeds: 1, Options: noPersistence}).Run(ctx, corpus.EvalSource())
	if err != nil {
		return err
	}
	for i := range evalRep.Rows {
		if err := monotoneFences(&evalRep.Rows[i]); err != nil {
			return err
		}
	}
	if g.Tables, err = renderTables(evalRep); err != nil {
		return err
	}
	files, err := readGoSources(cfg.root)
	if err != nil {
		return err
	}
	for _, f := range files {
		prog, err := fenceplace.ParseGo(f.name, f.src)
		if err != nil {
			return err
		}
		res, err := fenceplace.NewAnalyzer(prog, noPersistence...).AnalyzeAllCtx(ctx)
		if err != nil {
			return err
		}
		g.Fences[f.name] = map[string]int{}
		for _, r := range res {
			g.Fences[f.name][r.Strategy.String()] = r.FullFences
		}
	}

	fx, err = openServiceMixed(ctx, e)
	if err != nil {
		return err
	}
	defer fx.close()
	svc := fx.(*serviceMixed)
	opts := append([]*reqOption(nil), svc.mix.all...)
	sort.Slice(opts, func(i, j int) bool { return opts[i].key < opts[j].key })
	for _, opt := range opts {
		doc, err := svc.post(ctx, opt)
		if err != nil {
			return fmt.Errorf("%s: %w", opt.key, err)
		}
		if doc.Report == nil || len(doc.Report.Rows) != 1 {
			return fmt.Errorf("%s: job report does not hold exactly one row", opt.key)
		}
		g.record("service/"+opt.key, &doc.Report.Rows[0])
	}
	for kase, variants := range g.Certs {
		for name, v := range variants {
			if v.Status != corpus.CertCertified {
				fmt.Fprintf(os.Stderr, "note: %s/%s records status %q\n", kase, name, v.Status)
			}
		}
	}
	if err := g.write(cfg.root); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "recorded %d certification cases, %d Go twins and the eval tables\n", len(g.Certs), len(g.Fences))
	return nil
}
