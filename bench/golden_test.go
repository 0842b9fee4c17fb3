package main

import (
	"testing"

	"fenceplace/corpus"
)

// rowFromGolden builds the row a correct run would produce for a case.
func rowFromGolden(t *testing.T, g *golden, kase string) *corpus.Row {
	t.Helper()
	want, ok := g.Certs[kase]
	if !ok {
		t.Fatalf("no golden case %s", kase)
	}
	row := &corpus.Row{Program: kase}
	for _, name := range sortedKeys(want) {
		v := want[name]
		row.Variants = append(row.Variants, corpus.Variant{Name: name, Cert: &corpus.Cert{
			Status: v.Status, SCOutcomes: v.SC, TSOOutcomes: v.TSO, VisitedSC: 12345,
		}})
	}
	return row
}

func TestGoldenFlagsWrongCells(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	const kase = "cert-kernels/dekker"
	if bad := g.checkRow(kase, rowFromGolden(t, g, kase)); len(bad) != 0 {
		t.Fatalf("a correct row was flagged: %v", bad)
	}
	for _, tc := range []struct {
		name   string
		mutate func(r *corpus.Row)
	}{
		{"flipped verdict", func(r *corpus.Row) { r.Variants[0].Cert.Status = corpus.CertViolation }},
		{"changed SC outcome count", func(r *corpus.Row) { r.Variants[1].Cert.SCOutcomes++ }},
		{"changed TSO outcome count", func(r *corpus.Row) { r.Variants[2].Cert.TSOOutcomes-- }},
		{"truncation", func(r *corpus.Row) { r.Variants[0].Cert = &corpus.Cert{Status: corpus.CertBudget} }},
		{"missing certification", func(r *corpus.Row) { r.Variants[3].Cert = nil }},
		{"missing variant", func(r *corpus.Row) { r.Variants = r.Variants[1:] }},
	} {
		row := rowFromGolden(t, g, kase)
		tc.mutate(row)
		if bad := g.checkRow(kase, row); len(bad) != 1 {
			t.Errorf("%s: %d cells flagged, want 1: %v", tc.name, len(bad), bad)
		}
	}
	// Visit counts depend on the exploration schedule and are not checked.
	row := rowFromGolden(t, g, kase)
	row.Variants[0].Cert.VisitedTSO = 99
	if bad := g.checkRow(kase, row); len(bad) != 0 {
		t.Errorf("a changed visit count was flagged: %v", bad)
	}
}

// TestGoldenCoversInputs checks that the oracle has an entry for every
// input a workload can produce.
func TestGoldenCoversInputs(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	src := corpus.CertSource()
	for i := 0; i < src.Len(); i++ {
		if len(g.Certs["cert-kernels/"+src.Name(i)]) != 4 {
			t.Errorf("cert-kernels/%s: want 4 recorded variants", src.Name(i))
		}
	}
	if _, ok := g.Certs["cert-large/"+largeProgram]; !ok {
		t.Error("cert-large has no recorded verdict")
	}
	m, err := newMix("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range m.all {
		if _, ok := g.Certs["service/"+o.key]; !ok {
			t.Errorf("service request %s has no recorded verdict", o.key)
		}
	}
	files, err := readGoSources("..")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if len(g.Fences[f.name]) != 3 {
			t.Errorf("gosource %s: want fence counts for 3 strategies", f.name)
		}
	}
	if g.Tables == "" {
		t.Error("no recorded eval tables")
	}
}
