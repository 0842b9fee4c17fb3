package corpus

import (
	"fmt"

	"fenceplace/internal/stats"
)

// The table renderers below are pure views over Report data: they read
// only row fields, so rendering a report decoded from JSON is
// byte-identical to rendering the live one. Variant lookups are by
// display name; rows missing a variant render zeros for it.

// analyzed variant display names.
const (
	manualName  = "Manual"
	pensName    = "Pensieve"
	acName      = "Address+Control"
	controlName = "Control"
)

func (r *Row) acquires(name string) int {
	if v := r.variant(name); v != nil {
		return v.Acquires
	}
	return 0
}

func (r *Row) fences(name string) int {
	if v := r.variant(name); v != nil {
		return v.FullFences
	}
	return 0
}

func (r *Row) orderings(name string) OrderingCounts {
	if v := r.variant(name); v != nil {
		return v.Orderings
	}
	return OrderingCounts{}
}

// Fig7 renders Figure 7: the percentage of potentially-escaping reads each
// detector marks as an acquire.
func Fig7(rep *Report) string {
	t := stats.NewTable("program", "escaping reads", "Control", "Address+Control")
	var ctl, ac []float64
	for i := range rep.Rows {
		r := &rep.Rows[i]
		rc := stats.Ratio(r.acquires(controlName), r.EscReads)
		ra := stats.Ratio(r.acquires(acName), r.EscReads)
		ctl = append(ctl, rc)
		ac = append(ac, ra)
		t.Add(r.Program, fmt.Sprint(r.EscReads), stats.Pct(rc), stats.Pct(ra))
	}
	t.AddSep()
	t.Add("geomean", "", stats.Pct(stats.Geomean(ctl)), stats.Pct(stats.Geomean(ac)))
	return "Figure 7: percentage of escaping reads marked as acquires\n" +
		"(paper: Control ≈ 18% geomean, best 7%, worst 33%; A+C ≈ 60%, best 39%)\n" + t.String()
}

// Fig8 renders Figure 8: orderings by type for Pensieve and both pruned
// variants, as a percentage of Pensieve's total.
func Fig8(rep *Report) string {
	t := stats.NewTable("program", "variant", "r->r", "r->w", "w->r", "w->w", "total", "% of Pensieve")
	var acPct, ctlPct []float64
	for i := range rep.Rows {
		r := &rep.Rows[i]
		base := r.orderings(pensName).Total
		for _, name := range []string{pensName, acName, controlName} {
			o := r.orderings(name)
			ratio := stats.Ratio(o.Total, base)
			switch name {
			case acName:
				acPct = append(acPct, ratio)
			case controlName:
				ctlPct = append(ctlPct, ratio)
			}
			t.Add(r.Program, name,
				fmt.Sprint(o.RR), fmt.Sprint(o.RW),
				fmt.Sprint(o.WR), fmt.Sprint(o.WW),
				fmt.Sprint(o.Total), stats.Pct(ratio))
		}
		t.AddSep()
	}
	t.Add("geomean", "Address+Control", "", "", "", "", "", stats.Pct(stats.Geomean(acPct)))
	t.Add("geomean", "Control", "", "", "", "", "", stats.Pct(stats.Geomean(ctlPct)))
	return "Figure 8: orderings by type, as generated (Pensieve) and after pruning\n" +
		"(paper: ≈ 34% of orderings survive under Control, ≈ 68% under A+C; r->r dominates)\n" + t.String()
}

// Fig9 renders Figure 9: full fences remaining on x86-TSO relative to
// Pensieve's placement.
func Fig9(rep *Report) string {
	t := stats.NewTable("program", "Pensieve", "Address+Control", "Control", "A+C %", "Control %", "Manual")
	var acPct, ctlPct []float64
	for i := range rep.Rows {
		r := &rep.Rows[i]
		base := r.fences(pensName)
		ra := stats.Ratio(r.fences(acName), base)
		rc := stats.Ratio(r.fences(controlName), base)
		acPct = append(acPct, ra)
		ctlPct = append(ctlPct, rc)
		t.Add(r.Program, fmt.Sprint(base), fmt.Sprint(r.fences(acName)),
			fmt.Sprint(r.fences(controlName)), stats.Pct(ra), stats.Pct(rc),
			fmt.Sprint(r.fences(manualName)))
	}
	t.AddSep()
	t.Add("geomean", "", "", "", stats.Pct(stats.Geomean(acPct)), stats.Pct(stats.Geomean(ctlPct)), "")
	return "Figure 9: static full fences on x86-TSO (percentages relative to Pensieve)\n" +
		"(paper: ≈ 38% of Pensieve's fences remain under Control — 62% fewer; ≈ 73% under A+C)\n" + t.String()
}

// Fig10 renders Figure 10: simulated execution time normalized to the
// manual placement, averaged over however many simulator seeds the run
// recorded. It errors when a row lacks the dynamic data (a run with
// Seeds = 0, or a missing Manual build).
func Fig10(rep *Report) (string, error) {
	names := []string{manualName, pensName, acName, controlName}
	t := stats.NewTable("program", "Manual", "Pensieve", "Address+Control", "Control")
	norm := map[string][]float64{}
	for i := range rep.Rows {
		r := &rep.Rows[i]
		cycles := map[string]float64{}
		for _, name := range names {
			v := r.variant(name)
			if v == nil || len(v.Cycles) == 0 {
				return "", fmt.Errorf("corpus: %s/%s: no dynamic runs recorded", r.Program, name)
			}
			var sum float64
			for _, c := range v.Cycles {
				sum += float64(c)
			}
			cycles[name] = sum / float64(len(v.Cycles))
		}
		base := cycles[manualName]
		row := []string{r.Program}
		for _, name := range names {
			n := cycles[name] / base
			if name != manualName {
				norm[name] = append(norm[name], n)
			}
			row = append(row, fmt.Sprintf("%.2fx", n))
		}
		t.Add(row...)
	}
	t.AddSep()
	t.Add("geomean", "1.00x",
		fmt.Sprintf("%.2fx", stats.Geomean(norm[pensName])),
		fmt.Sprintf("%.2fx", stats.Geomean(norm[acName])),
		fmt.Sprintf("%.2fx", stats.Geomean(norm[controlName])))
	head := "Figure 10: simulated execution time on TSO, normalized to manual fences\n" +
		"(paper: Pensieve ≈ 1.94x, A+C ≈ 1.69x, Control ≈ 1.44x; Control ≈ 30% faster than Pensieve)\n"
	return head + t.String(), nil
}

// ManualTable renders the expert fence counts per program alongside the
// paper's §5.3 numbers.
func ManualTable(rep *Report) string {
	paper := map[string]string{
		"canneal": "10", "fmm": "6", "volrend": "2", "matrix": "6", "spanningtree": "5",
	}
	t := stats.NewTable("program", "manual full fences (ours)", "paper §5.3")
	for i := range rep.Rows {
		r := &rep.Rows[i]
		pp, ok := paper[r.Program]
		if !ok {
			pp = "-"
		}
		t.Add(r.Program, fmt.Sprint(r.fences(manualName)), pp)
	}
	return "Manual (expert) fence placement\n" +
		"(differences are expected: our corpus synchronizes through locked RMWs\n" +
		"wherever the original used library atomics — see EXPERIMENTS.md)\n" + t.String()
}

// CertTable renders the certification column of the evaluation: for each
// program and variant, whether the placed fences provably restore SC.
// Uncertified variants render "-". Run-environment footers (SC
// explorations performed, store deltas) are the driver's to append — they
// describe a run, not the report.
func CertTable(rep *Report) string {
	names := []string{manualName, pensName, acName, controlName}
	t := stats.NewTable("program", "Manual", "Pensieve", "Address+Control", "Control")
	for i := range rep.Rows {
		r := &rep.Rows[i]
		cells := []string{r.Program}
		for _, name := range names {
			v := r.variant(name)
			if v == nil || v.Cert == nil {
				cells = append(cells, "-")
				continue
			}
			cells = append(cells, v.Cert.Cell())
		}
		t.Add(cells...)
	}
	return "Certification: exhaustive SC-equivalence of the placed fences\n" +
		"(model checker: TSO final states of the instrumented build vs SC final states\n" +
		"of the legacy build; a VIOLATION on a pruned variant means the program is\n" +
		"not DRF or the fences are insufficient; a certificate holds for x86-TSO with\n" +
		"4-entry store buffers)\n" + t.String()
}
