package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"

	"fenceplace/internal/stats"
)

// spec is the part of BENCHMARK.json the comparison reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// loadRuns reads the untraced result documents of a directory, grouped by
// workload and ordered by file name, which pairs them with the other
// side's runs in the order they were taken.
func loadRuns(dir string) (map[string][]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	sort.Strings(paths)
	runs := map[string][]*result{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Trace == 0 && r.Workload != "" {
			runs[r.Workload] = append(runs[r.Workload], &r)
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no untraced result documents", dir)
	}
	return runs, nil
}

// Verdicts of one metric on one workload.
const (
	verdictGain       = "gain"
	verdictBetter     = "better (every run)"
	verdictSame       = "within bound"
	verdictUnresolved = "unresolved"
	verdictRegression = "REGRESSION"
)

// judgement is the comparison of one metric on one workload.
type judgement struct {
	oldQ, newQ [3]float64 // quartiles
	pairs      int
	wins       int     // pairs the new run wins; ties count for neither
	change     float64 // relative change of the median, positive = worse
	verdict    string
}

// judge applies the comparison rule: a gain needs at least ten pairs, nine
// tenths of them won, and a median gap wider than the old runs' quartile
// spread; a median worse by more than the bound is a regression; a spread
// wider than the bound leaves the metric unresolved unless every new run
// beats every old one.
func judge(old, new []float64, better string, bound float64) judgement {
	var j judgement
	j.oldQ[0], j.oldQ[1], j.oldQ[2] = quartiles(old)
	j.newQ[0], j.newQ[1], j.newQ[2] = quartiles(new)
	sign := -1.0 // improvement is sign * (new - old) > 0
	if better == "higher" {
		sign = 1
	}
	j.pairs = min(len(old), len(new))
	for i := 0; i < j.pairs; i++ {
		if sign*(new[i]-old[i]) > 0 {
			j.wins++
		}
	}
	oldMed, newMed := j.oldQ[1], j.newQ[1]
	j.change = -sign * (newMed - oldMed) / oldMed
	gap := sign * (newMed - oldMed)
	allBetter := sign*(extreme(new, -sign)-extreme(old, sign)) > 0
	switch {
	case j.pairs >= 10 && 10*j.wins >= 9*j.pairs && gap > j.oldQ[2]-j.oldQ[0]:
		j.verdict = verdictGain
	case j.change > bound:
		j.verdict = verdictRegression
	case (j.oldQ[2]-j.oldQ[0])/oldMed > bound || (j.newQ[2]-j.newQ[0])/newMed > bound:
		j.verdict = verdictUnresolved
		if allBetter {
			j.verdict = verdictBetter
		}
	default:
		j.verdict = verdictSame
	}
	return j
}

// extreme returns the largest value of xs when dir > 0, the smallest when
// dir < 0.
func extreme(xs []float64, dir float64) float64 {
	best := math.Inf(-int(dir))
	for _, x := range xs {
		if dir*(x-best) > 0 {
			best = x
		}
	}
	return best
}

// compareMain implements `fencebench compare OLD NEW`.
func compareMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	fs.SetOutput(stderr)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition holding each metric's direction and bound")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: fencebench compare [--spec BENCHMARK.json] OLD_DIR NEW_DIR")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	oldRuns, err := loadRuns(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	newRuns, err := loadRuns(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "compare:", err)
		return 2
	}
	regressions := compare(stdout, sp, oldRuns, newRuns)
	if regressions > 0 {
		return 1
	}
	return 0
}

// compare prints one row per end-to-end metric and workload, and for each
// calibrated metric a second row judging its uncalibrated values, then the
// failed-op shares and one summary row per workload. It returns the number
// of regressions; the uncalibrated rows are shown, not counted, because
// the host's drift between two sets moves them as much as a change does.
func compare(w io.Writer, sp *spec, oldRuns, newRuns map[string][]*result) int {
	t := stats.NewTable("workload", "metric", "old median [q1, q3]", "new median [q1, q3]", "change", "pairs won", "verdict")
	summary := stats.NewTable("workload", "runs old/new", "failed ops old/new", "regressions", "unresolved", "gains", "raw regressions")
	regressions := 0
	for _, wl := range sp.Workloads {
		olds, news := oldRuns[wl.Name], newRuns[wl.Name]
		if len(olds) == 0 || len(news) == 0 {
			summary.Add(wl.Name, fmt.Sprintf("%d/%d", len(olds), len(news)), "-", "-", "-", "no runs to compare", "-")
			continue
		}
		var nReg, nUnres, nGain, nRawReg int
		row := func(name string, j judgement) {
			t.Add(wl.Name, name, quartileCell(j.oldQ), quartileCell(j.newQ),
				fmt.Sprintf("%+.1f%% %s", 100*j.change, worseWord(j.change)),
				fmt.Sprintf("%d/%d", j.wins, j.pairs), j.verdict)
		}
		for _, m := range sp.EndToEnd {
			ov, nv := values(olds, m.Name), values(news, m.Name)
			if len(ov) == 0 || len(nv) == 0 {
				t.Add(wl.Name, m.Name, "-", "-", "-", "-", "missing")
				nUnres++
				continue
			}
			j := judge(ov, nv, m.Better, m.Bound)
			switch j.verdict {
			case verdictRegression:
				nReg++
			case verdictUnresolved:
				nUnres++
			case verdictGain, verdictBetter:
				nGain++
			}
			row(m.Name, j)
			if ov, nv := rawValuesOf(olds, m.Name), rawValuesOf(news, m.Name); len(ov) > 0 && len(nv) > 0 {
				j := judge(ov, nv, m.Better, m.Bound)
				if j.verdict == verdictRegression {
					nRawReg++
				}
				row(m.Name+" (raw)", j)
			}
		}
		oldShare, newShare := failedShare(olds), failedShare(news)
		failVerdict := "ok"
		if newShare > oldShare {
			failVerdict = verdictRegression
			nReg++
		}
		t.Add(wl.Name, "failed ops", fmt.Sprintf("%.4f%%", 100*oldShare), fmt.Sprintf("%.4f%%", 100*newShare), "", "", failVerdict)
		t.AddSep()
		summary.Add(wl.Name, fmt.Sprintf("%d/%d", len(olds), len(news)),
			fmt.Sprintf("%.4f%%/%.4f%%", 100*oldShare, 100*newShare),
			fmt.Sprint(nReg), fmt.Sprint(nUnres), fmt.Sprint(nGain), fmt.Sprint(nRawReg))
		regressions += nReg
	}
	fmt.Fprint(w, t.String())
	fmt.Fprintln(w)
	fmt.Fprint(w, summary.String())
	return regressions
}

func values(runs []*result, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// rawValuesOf returns the runs' uncalibrated values of a metric; none
// when the metric is not calibrated.
func rawValuesOf(runs []*result, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if r.Raw == nil {
			continue
		}
		if v, ok := r.Raw.get(name); ok {
			out = append(out, v)
		}
	}
	return out
}

func failedShare(runs []*result) float64 {
	var failed, attempted int64
	for _, r := range runs {
		failed += r.Failed
		attempted += r.Attempted
	}
	return div(float64(failed), float64(attempted))
}

func quartileCell(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g, %.4g]", q[1], q[0], q[2])
}

func worseWord(change float64) string {
	switch {
	case change > 0:
		return "worse"
	case change < 0:
		return "better"
	}
	return ""
}
