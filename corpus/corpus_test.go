package corpus_test

// Tests of the public corpus API, exercised exactly as an external caller
// would use it: shard the source, run the shards, round-trip the reports
// through JSON, merge, and demand tables byte-identical to the unsharded
// run.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"sort"
	"strings"
	"sync"
	"testing"

	"fenceplace"
	"fenceplace/corpus"

	"fenceplace/internal/progs"
	"fenceplace/internal/stats"
)

var (
	evalOnce sync.Once
	evalRep  *corpus.Report
	evalErr  error
)

// evalReport runs the Figures 7-10 evaluation once per test binary, with
// one simulator seed per variant.
func evalReport(t *testing.T) *corpus.Report {
	t.Helper()
	evalOnce.Do(func() {
		evalRep, evalErr = (&corpus.Runner{Seeds: 1}).Run(context.Background(), corpus.EvalSource())
	})
	if evalErr != nil {
		t.Fatal(evalErr)
	}
	return evalRep
}

// variant returns the row's variant with the given display name.
func variant(t *testing.T, r corpus.Row, name string) corpus.Variant {
	t.Helper()
	for _, v := range r.Variants {
		if v.Name == name {
			return v
		}
	}
	t.Fatalf("%s: no %s variant", r.Program, name)
	return corpus.Variant{}
}

// TestShardPartition pins the partition law: the n shards of a source are
// disjoint, cover it, and keep the members' names.
func TestShardPartition(t *testing.T) {
	src := corpus.EvalSource()
	for _, n := range []int{1, 2, 3, src.Len(), src.Len() + 3} {
		var names []string
		total := 0
		for i := 1; i <= n; i++ {
			sh, err := corpus.Shard(src, i, n)
			if err != nil {
				t.Fatalf("Shard(%d, %d): %v", i, n, err)
			}
			total += sh.Len()
			for j := 0; j < sh.Len(); j++ {
				names = append(names, sh.Name(j))
			}
		}
		if total != src.Len() {
			t.Fatalf("n=%d: shards cover %d members, want %d", n, total, src.Len())
		}
		var want []string
		for j := 0; j < src.Len(); j++ {
			want = append(want, src.Name(j))
		}
		sort.Strings(names)
		sort.Strings(want)
		for i := range want {
			if names[i] != want[i] {
				t.Fatalf("n=%d: shard union mismatch at %d: %s vs %s", n, i, names[i], want[i])
			}
		}
	}
	for _, bad := range [][2]int{{0, 2}, {3, 2}, {1, 0}, {-1, 4}} {
		if _, err := corpus.Shard(src, bad[0], bad[1]); err == nil {
			t.Errorf("Shard(%d, %d) accepted", bad[0], bad[1])
		}
	}
}

// TestShardMergeIdenticalTables is the acceptance check for cross-process
// sharding: two complementary shard reports, round-tripped through the
// versioned JSON codec and merged, must render tables byte-identical to an
// unsharded run — and encode to byte-identical JSON.
func TestShardMergeIdenticalTables(t *testing.T) {
	runner := corpus.Runner{Seeds: 1}
	ctx := context.Background()

	full := evalReport(t)
	if len(full.Rows) != corpus.EvalSource().Len() {
		t.Fatalf("unsharded run produced %d rows, want %d", len(full.Rows), corpus.EvalSource().Len())
	}

	var merged *corpus.Report
	for i := 1; i <= 2; i++ {
		sh, err := corpus.Shard(corpus.EvalSource(), i, 2)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := runner.Run(ctx, sh)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Shard != i || rep.Shards != 2 {
			t.Errorf("shard %d report stamped %d/%d", i, rep.Shard, rep.Shards)
		}
		// Round-trip through the wire format: what merges is what ships.
		var buf bytes.Buffer
		if err := rep.EncodeJSON(&buf); err != nil {
			t.Fatal(err)
		}
		dec, err := corpus.DecodeJSON(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if merged == nil {
			merged = dec
		} else if err := merged.Merge(dec); err != nil {
			t.Fatal(err)
		}
	}

	type render struct {
		name string
		fn   func(*corpus.Report) string
	}
	renders := []render{
		{"Fig7", corpus.Fig7},
		{"Fig8", corpus.Fig8},
		{"Fig9", corpus.Fig9},
		{"ManualTable", corpus.ManualTable},
	}
	for _, r := range renders {
		if got, want := r.fn(merged), r.fn(full); got != want {
			t.Errorf("%s from merged shards differs from unsharded run:\n--- merged ---\n%s\n--- full ---\n%s", r.name, got, want)
		}
	}
	g10, err := corpus.Fig10(merged)
	if err != nil {
		t.Fatal(err)
	}
	w10, err := corpus.Fig10(full)
	if err != nil {
		t.Fatal(err)
	}
	if g10 != w10 {
		t.Errorf("Fig10 from merged shards differs from unsharded run")
	}

	var mj, fj bytes.Buffer
	if err := merged.EncodeJSON(&mj); err != nil {
		t.Fatal(err)
	}
	if err := full.EncodeJSON(&fj); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mj.Bytes(), fj.Bytes()) {
		t.Error("merged report JSON differs from the unsharded report's")
	}
}

// TestPlansVerifyAcrossCorpus re-checks, outside the Runner, that every
// paper strategy's fence plan covers every kept ordering along all
// control-flow paths of every program in the evaluation set.
func TestPlansVerifyAcrossCorpus(t *testing.T) {
	src := corpus.EvalSource()
	for i := 0; i < src.Len(); i++ {
		az := fenceplace.NewAnalyzer(src.Build(i))
		results, err := az.AnalyzeAllCtx(context.Background(),
			fenceplace.PensieveOnly, fenceplace.AddressControl, fenceplace.Control)
		if err != nil {
			t.Fatalf("%s: %v", src.Name(i), err)
		}
		for _, res := range results {
			if err := res.Verify(); err != nil {
				t.Errorf("%s/%s: %v", src.Name(i), res.Strategy, err)
			}
		}
	}
}

// TestInstrumentedProgramsCorrectUnderTSO is the central soundness claim
// over the evaluation set: Run verifies every variant's fence plan (an
// uncovered ordering is an error) and runs every instrumented build, the
// expert Manual one included, under TSO (a failed assertion, deadlock or
// runtime error is an error), so a report that exists with a simulated
// run for each of the four variants of every program is the proof.
func TestInstrumentedProgramsCorrectUnderTSO(t *testing.T) {
	rep := evalReport(t)
	if len(rep.Rows) != corpus.EvalSource().Len() {
		t.Fatalf("%d rows, want %d", len(rep.Rows), corpus.EvalSource().Len())
	}
	for _, r := range rep.Rows {
		for _, name := range []string{"Manual", "Pensieve", "Address+Control", "Control"} {
			if v := variant(t, r, name); len(v.Cycles) != 1 {
				t.Errorf("%s/%s: %d simulated runs, want 1", r.Program, name, len(v.Cycles))
			}
		}
	}
}

// TestFig7Shape pins the paper's Figure 7 shape: Control flags far fewer
// reads than Address+Control, which flags far fewer than everything.
func TestFig7Shape(t *testing.T) {
	var ctl, ac []float64
	for _, r := range evalReport(t).Rows {
		if r.EscReads == 0 {
			t.Fatalf("%s: no escaping reads", r.Program)
		}
		c := stats.Ratio(variant(t, r, "Control").Acquires, r.EscReads)
		a := stats.Ratio(variant(t, r, "Address+Control").Acquires, r.EscReads)
		if c > a+1e-9 {
			t.Errorf("%s: Control ratio %.2f exceeds A+C ratio %.2f", r.Program, c, a)
		}
		if a > 1 || c > 1 {
			t.Errorf("%s: acquire ratio above 1", r.Program)
		}
		if c == 0 {
			t.Errorf("%s: no control acquires at all — every program synchronizes", r.Program)
		}
		ctl = append(ctl, c)
		ac = append(ac, a)
	}
	gc, ga := stats.Geomean(ctl), stats.Geomean(ac)
	if !(gc > 0.05 && gc < 0.45) {
		t.Errorf("Control geomean %.2f outside the paper's ballpark (≈0.18)", gc)
	}
	if !(ga > 0.30 && ga < 0.90) {
		t.Errorf("A+C geomean %.2f outside the paper's ballpark (≈0.60)", ga)
	}
	if ga <= gc {
		t.Errorf("A+C geomean %.2f not above Control geomean %.2f", ga, gc)
	}
}

// TestFig8Shape pins Figure 8: pruning only removes orderings, never
// touches →w ones, and r→r orderings dominate most programs.
func TestFig8Shape(t *testing.T) {
	rows := evalReport(t).Rows
	rrDominant := 0
	for _, r := range rows {
		full := variant(t, r, "Pensieve").Orderings
		ac := variant(t, r, "Address+Control").Orderings
		ctl := variant(t, r, "Control").Orderings
		if ctl.Total > ac.Total || ac.Total > full.Total {
			t.Errorf("%s: ordering monotonicity violated: %d / %d / %d",
				r.Program, ctl.Total, ac.Total, full.Total)
		}
		if ctl.RW != full.RW || ctl.WW != full.WW {
			t.Errorf("%s: pruning modified →w orderings", r.Program)
		}
		if full.RR > full.Total/2 {
			rrDominant++
		}
	}
	// The paper: r→r orderings form the majority in all but two programs.
	if rrDominant < len(rows)*2/3 {
		t.Errorf("r->r dominant in only %d of %d programs", rrDominant, len(rows))
	}
}

// TestFig9Shape pins Figure 9: pruning never adds fences.
func TestFig9Shape(t *testing.T) {
	for _, r := range evalReport(t).Rows {
		p := variant(t, r, "Pensieve").FullFences
		a := variant(t, r, "Address+Control").FullFences
		c := variant(t, r, "Control").FullFences
		if c > a || a > p {
			t.Errorf("%s: fence monotonicity violated: Control %d, A+C %d, Pensieve %d",
				r.Program, c, a, p)
		}
		if p == 0 {
			t.Errorf("%s: Pensieve placed no fences", r.Program)
		}
	}
}

// TestFig10Shape pins Figure 10's geomean ordering: Pensieve is slower
// than the expert placement, and each pruned variant is no slower than
// the one it refines.
func TestFig10Shape(t *testing.T) {
	rep := evalReport(t)
	report, err := corpus.Fig10(rep)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(report, "geomean") {
		t.Fatal("missing geomean row")
	}
	var pens, ac, ctl []float64
	for _, r := range rep.Rows {
		base := float64(variant(t, r, "Manual").Cycles[0])
		pens = append(pens, float64(variant(t, r, "Pensieve").Cycles[0])/base)
		ac = append(ac, float64(variant(t, r, "Address+Control").Cycles[0])/base)
		ctl = append(ctl, float64(variant(t, r, "Control").Cycles[0])/base)
	}
	gp, ga, gc := stats.Geomean(pens), stats.Geomean(ac), stats.Geomean(ctl)
	if !(gp >= ga-0.02 && ga >= gc-0.02) {
		t.Errorf("normalized time ordering broken: Pensieve %.2f, A+C %.2f, Control %.2f", gp, ga, gc)
	}
	if gp < 1.0 {
		t.Errorf("Pensieve (%.2f) should be slower than manual", gp)
	}
	if gc >= gp {
		t.Errorf("Control (%.2f) shows no speedup over Pensieve (%.2f)", gc, gp)
	}
}

// TestReportsRender checks the report-backed tables carry their summary
// rows and columns.
func TestReportsRender(t *testing.T) {
	rep := evalReport(t)
	if s := corpus.Fig7(rep); !strings.Contains(s, "geomean") {
		t.Error("Fig7 missing geomean")
	}
	if s := corpus.Fig8(rep); !strings.Contains(s, "r->r") {
		t.Error("Fig8 missing type columns")
	}
	if s := corpus.Fig9(rep); !strings.Contains(s, "Pensieve") {
		t.Error("Fig9 missing variants")
	}
	if s := corpus.ManualTable(rep); !strings.Contains(s, "volrend") {
		t.Error("manual table incomplete")
	}
}

// TestMergeRejections pins the merge guards: version skew, source skew and
// overlapping indices must all refuse.
func TestMergeRejections(t *testing.T) {
	mk := func(source string, idx ...int) *corpus.Report {
		r := &corpus.Report{Version: corpus.Version, Source: source}
		for _, i := range idx {
			r.Rows = append(r.Rows, corpus.Row{Index: i, Program: "p"})
		}
		return r
	}
	a := mk("eval", 0, 2)
	if err := a.Merge(mk("eval", 1, 3)); err != nil {
		t.Fatalf("disjoint merge refused: %v", err)
	}
	for i, r := range a.Rows {
		if r.Index != i {
			t.Fatalf("merged rows not sorted by index: %v at %d", r.Index, i)
		}
	}
	if err := a.Merge(mk("eval", 2)); err == nil {
		t.Error("overlapping index merged")
	}
	if err := a.Merge(mk("cert", 9)); err == nil {
		t.Error("cross-source merge accepted")
	}
	bad := mk("eval", 9)
	bad.Version = corpus.Version + 1
	if err := a.Merge(bad); err == nil {
		t.Error("version-skewed merge accepted")
	}

	var buf bytes.Buffer
	if err := bad.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := corpus.DecodeJSON(&buf); err == nil {
		t.Error("decoder accepted a future version")
	}
}

// TestRunnerCertifies runs the full pipeline — analysis, verification,
// certification against the shared SC baseline — over a single-program
// source and checks the resulting row's plain data.
func TestRunnerCertifies(t *testing.T) {
	t.Setenv("FENCEPLACE_CACHE_DIR", "")
	m := progs.ByName("dekker")
	pp := m.Defaults
	pp.Threads = 2
	pp.Size = 1
	pm := pp
	pm.Manual = true

	runner := corpus.Runner{
		Certify: true,
		Workers: 1,
		Options: []fenceplace.Option{fenceplace.WithMaxStates(1 << 20)},
	}
	rep, err := runner.Run(context.Background(), corpus.SingleSource("dekker", m.Build(pp), m.Build(pm)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) != 1 {
		t.Fatalf("got %d rows, want 1", len(rep.Rows))
	}
	row := rep.Rows[0]
	if len(row.Variants) != 4 {
		t.Fatalf("got %d variants, want 4 (Manual + 3 strategies)", len(row.Variants))
	}
	for _, v := range row.Variants {
		if v.Cert == nil {
			t.Fatalf("%s: no certification", v.Name)
		}
		if v.Cert.Status != corpus.CertCertified {
			t.Errorf("%s: %s (%s)", v.Name, v.Cert.Status, v.Cert.Err)
		}
		if (v.Name == "Manual") == v.Analyzed {
			t.Errorf("%s: analyzed flag %v", v.Name, v.Analyzed)
		}
	}
	if s := corpus.CertTable(rep); !bytes.Contains([]byte(s), []byte("certified")) {
		t.Errorf("cert table missing verdicts:\n%s", s)
	}
}

// TestCertificationColumn model-checks the fence placements of two
// Dekker-family kernels at a reduced instantiation: every variant, the
// expert Manual build included, must be certified SC-equivalent, and the
// unfenced legacy build, run through the same column as its Manual
// variant, must not be.
func TestCertificationColumn(t *testing.T) {
	t.Setenv("FENCEPLACE_CACHE_DIR", "") // never read or write the operator's cache
	runner := corpus.Runner{
		Certify: true,
		Workers: 1,
		Options: []fenceplace.Option{fenceplace.WithMaxStates(1 << 20)},
	}
	column := func(name string, prog, manual *fenceplace.Program) corpus.Row {
		t.Helper()
		rep, err := runner.Run(context.Background(), corpus.SingleSource(name, prog, manual))
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Rows) != 1 || len(rep.Rows[0].Variants) != 4 {
			t.Fatalf("%s: want 1 row of 4 variants, got %+v", name, rep.Rows)
		}
		for _, v := range rep.Rows[0].Variants {
			if v.Cert == nil {
				t.Fatalf("%s/%s: no certification", name, v.Name)
			}
		}
		return rep.Rows[0]
	}
	for _, name := range []string{"dekker", "peterson"} {
		m := progs.ByName(name)
		pp := m.Defaults
		pp.Threads = 2
		pp.Size = 1
		pm := pp
		pm.Manual = true

		for _, v := range column(name, m.Build(pp), m.Build(pm)).Variants {
			if v.Cert.Status != corpus.CertCertified {
				t.Errorf("%s/%s: %s (%s)", name, v.Name, v.Cert.Status, v.Cert.Err)
			}
		}
		// The legacy build run raw under TSO is the negative control.
		bare := variant(t, column(name, m.Build(pp), m.Build(pp)), "Manual")
		if bare.Cert.Status != corpus.CertViolation || bare.Cert.Counterexample == "" {
			t.Errorf("%s unfenced: expected a violation with a counterexample, got %s", name, bare.Cert.Status)
		}
	}
}

// TestRunnerCancelled pins the driver's context behavior.
func TestRunnerCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	runner := corpus.Runner{}
	if _, err := runner.Run(ctx, corpus.EvalSource()); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled Run returned %v, want context.Canceled", err)
	}
}

// TestCertKernelsMatchGolden is the differential check of the model
// checker's reductions on the Table II kernels and the benchmark's large
// certification (szymanski at size 3 under Control): at one, two and four
// exploration workers, every variant's verdict and SC and TSO outcome
// counts must equal those the benchmark's oracle records (read, never
// written, here).
func TestCertKernelsMatchGolden(t *testing.T) {
	t.Setenv("FENCEPLACE_CACHE_DIR", "")
	data, err := os.ReadFile("../bench/testdata/golden.json")
	if err != nil {
		t.Fatal(err)
	}
	type verdict struct {
		Status string `json:"status"`
		SC     int    `json:"sc_outcomes"`
		TSO    int    `json:"tso_outcomes"`
	}
	var golden struct {
		Certs map[string]map[string]verdict `json:"certs"`
	}
	if err := json.Unmarshal(data, &golden); err != nil {
		t.Fatal(err)
	}
	m := progs.ByName("szymanski")
	pp := m.Defaults
	pp.Threads, pp.Size = 2, 3
	runs := []struct {
		prefix     string
		src        corpus.Source
		strategies []fenceplace.Strategy
	}{
		{"cert-kernels/", corpus.CertSource(), nil},
		{"cert-large/", corpus.SingleSource("szymanski", m.Build(pp), nil), []fenceplace.Strategy{fenceplace.Control}},
	}
	for _, workers := range []int{1, 2, 4} {
		for _, run := range runs {
			runner := corpus.Runner{
				Strategies: run.strategies,
				Certify:    true,
				Options:    []fenceplace.Option{fenceplace.WithCacheDir(""), fenceplace.WithWorkers(workers)},
			}
			rep, err := runner.Run(context.Background(), run.src)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Rows) != run.src.Len() {
				t.Fatalf("workers=%d: %d rows, want %d", workers, len(rep.Rows), run.src.Len())
			}
			for _, row := range rep.Rows {
				kase := run.prefix + row.Program
				want := golden.Certs[kase]
				if len(row.Variants) != len(want) {
					t.Errorf("workers=%d %s: %d variants, golden has %d", workers, kase, len(row.Variants), len(want))
				}
				for _, v := range row.Variants {
					got := verdict{Status: "uncertified"}
					if v.Cert != nil {
						got = verdict{Status: v.Cert.Status, SC: v.Cert.SCOutcomes, TSO: v.Cert.TSOOutcomes}
					}
					if w, ok := want[v.Name]; !ok || got != w {
						t.Errorf("workers=%d %s/%s: %+v, golden %+v", workers, kase, v.Name, got, w)
					}
				}
			}
		}
	}
}

// TestEvalTablesMatchGolden pins the rendered evaluation — Figures 7-10
// and the Manual table, joined as the benchmark renders them — byte for
// byte against the benchmark's oracle (read, never written, here). Figure
// 10's simulated cycle counts come from tso.Run, so this is the tier-1
// check that a simulator change leaves the paper's numbers alone.
func TestEvalTablesMatchGolden(t *testing.T) {
	t.Setenv("FENCEPLACE_CACHE_DIR", "")
	want, err := os.ReadFile("../bench/testdata/eval_tables.txt")
	if err != nil {
		t.Fatal(err)
	}
	runner := corpus.Runner{
		Seeds:   1,
		Workers: 1,
		Options: []fenceplace.Option{fenceplace.WithCacheDir("")},
	}
	rep, err := runner.Run(context.Background(), corpus.EvalSource())
	if err != nil {
		t.Fatal(err)
	}
	fig10, err := corpus.Fig10(rep)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join([]string{
		corpus.Fig7(rep), corpus.Fig8(rep), corpus.Fig9(rep), fig10, corpus.ManualTable(rep),
	}, "\n")
	if got != string(want) {
		t.Errorf("rendered evaluation tables differ from bench/testdata/eval_tables.txt\ngot:\n%s", got)
	}
}

// TestCertKernelsVisitCounts pins the SC and TSO state counts of every
// cert-kernels cell at one exploration worker, where the search order —
// and with it every count — is deterministic. A change to the state
// encoding or the fingerprint that keeps these counts has kept the
// quotient of states the reductions explore. The counts before merging
// invisible steps stay as an upper bound no cell may exceed.
func TestCertKernelsVisitCounts(t *testing.T) {
	t.Setenv("FENCEPLACE_CACHE_DIR", "")
	type visits struct{ sc, tso int64 }
	// Recorded at one worker after merging invisible steps into normal forms.
	want := map[string]visits{
		"chaselev/Manual":           {1655, 3038},
		"chaselev/Pensieve":         {1655, 2125},
		"chaselev/Address+Control":  {1655, 2125},
		"chaselev/Control":          {1655, 2125},
		"cilk5/Manual":              {2096, 5648},
		"cilk5/Pensieve":            {2096, 3018},
		"cilk5/Address+Control":     {2096, 3018},
		"cilk5/Control":             {2096, 3018},
		"clh/Manual":                {1663, 4033},
		"clh/Pensieve":              {1663, 2218},
		"clh/Address+Control":       {1663, 2218},
		"clh/Control":               {1663, 2218},
		"dekker/Manual":             {1783, 4342},
		"dekker/Pensieve":           {1783, 2361},
		"dekker/Address+Control":    {1783, 2361},
		"dekker/Control":            {1783, 2361},
		"lamport/Manual":            {7799, 26197},
		"lamport/Pensieve":          {7799, 10849},
		"lamport/Address+Control":   {7799, 10849},
		"lamport/Control":           {7799, 10849},
		"mcs/Manual":                {4829, 10193},
		"mcs/Pensieve":              {4829, 6291},
		"mcs/Address+Control":       {4829, 6291},
		"mcs/Control":               {4829, 6291},
		"msqueue/Manual":            {880, 1433},
		"msqueue/Pensieve":          {880, 1238},
		"msqueue/Address+Control":   {880, 1238},
		"msqueue/Control":           {880, 1238},
		"peterson/Manual":           {1044, 1706},
		"peterson/Pensieve":         {1044, 1269},
		"peterson/Address+Control":  {1044, 1269},
		"peterson/Control":          {1044, 1269},
		"szymanski/Manual":          {2722, 4928},
		"szymanski/Pensieve":        {2722, 3654},
		"szymanski/Address+Control": {2722, 3654},
		"szymanski/Control":         {2722, 3654},
	}
	// Recorded at one worker before merging invisible steps: each cell
	// explores at most the states it did one state per step.
	bound := map[string]visits{
		"chaselev/Manual":           {3108, 6138},
		"chaselev/Pensieve":         {3108, 5357},
		"chaselev/Address+Control":  {3108, 5352},
		"chaselev/Control":          {3108, 5352},
		"cilk5/Manual":              {3910, 12625},
		"cilk5/Pensieve":            {3910, 7855},
		"cilk5/Address+Control":     {3910, 7851},
		"cilk5/Control":             {3910, 7851},
		"clh/Manual":                {3053, 7514},
		"clh/Pensieve":              {3053, 5364},
		"clh/Address+Control":       {3053, 5363},
		"clh/Control":               {3053, 5363},
		"dekker/Manual":             {2790, 7713},
		"dekker/Pensieve":           {2790, 5487},
		"dekker/Address+Control":    {2790, 5486},
		"dekker/Control":            {2790, 5486},
		"lamport/Manual":            {12515, 47166},
		"lamport/Pensieve":          {12515, 25374},
		"lamport/Address+Control":   {12515, 25373},
		"lamport/Control":           {12515, 25373},
		"mcs/Manual":                {8555, 18937},
		"mcs/Pensieve":              {8555, 14785},
		"mcs/Address+Control":       {8555, 14784},
		"mcs/Control":               {8555, 14784},
		"msqueue/Manual":            {1812, 3093},
		"msqueue/Pensieve":          {1812, 3145},
		"msqueue/Address+Control":   {1812, 3141},
		"msqueue/Control":           {1812, 3141},
		"peterson/Manual":           {2049, 3721},
		"peterson/Pensieve":         {2049, 3432},
		"peterson/Address+Control":  {2049, 3431},
		"peterson/Control":          {2049, 3431},
		"szymanski/Manual":          {4831, 10754},
		"szymanski/Pensieve":        {4831, 9082},
		"szymanski/Address+Control": {4831, 9081},
		"szymanski/Control":         {4831, 9081},
	}
	runner := corpus.Runner{
		Certify: true,
		Workers: 1,
		Options: []fenceplace.Option{fenceplace.WithCacheDir(""), fenceplace.WithWorkers(1)},
	}
	rep, err := runner.Run(context.Background(), corpus.CertSource())
	if err != nil {
		t.Fatal(err)
	}
	cells := 0
	for _, row := range rep.Rows {
		for _, v := range row.Variants {
			cells++
			cell := row.Program + "/" + v.Name
			if v.Cert == nil {
				t.Errorf("%s: not certified", cell)
				continue
			}
			got := visits{v.Cert.VisitedSC, v.Cert.VisitedTSO}
			if w, ok := want[cell]; !ok || got != w {
				t.Errorf("%s: visited %d SC / %d TSO states, want %d / %d", cell, got.sc, got.tso, w.sc, w.tso)
				t.Logf("\t%q: {%d, %d},", cell, got.sc, got.tso)
			}
			if b, ok := bound[cell]; !ok || got.sc > b.sc || got.tso > b.tso {
				t.Errorf("%s: visited %d SC / %d TSO states, more than the %d / %d explored one state per step",
					cell, got.sc, got.tso, b.sc, b.tso)
			}
		}
	}
	if cells != len(want) {
		t.Errorf("%d cells, want %d", cells, len(want))
	}
}
