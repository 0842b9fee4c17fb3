package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, tc := range []struct{ p, want float64 }{
		{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6},
	} {
		if got := percentile(xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v) = %v, want %v", tc.p, got, tc.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of an even sample = %v, want 2.5", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of an empty sample is not NaN")
	}
}

// TestTailPercentile pins the rule that a reported tail percentile has at
// least ten samples beyond it.
func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{10000, 99.9, true},
		{9999, 99, true},
		{2400, 99, true},
		{1000, 99, true},
		{999, 95, true},
		{200, 95, true},
		{199, 90, true},
		{100, 90, true},
		{99, 75, true},
		{40, 75, true},
		{39, 0, false},
		{1, 0, false},
	} {
		p, ok := tailPercentile(tc.n)
		if p != tc.want || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, p, ok, tc.want, tc.ok)
		}
		if ok && float64(tc.n)*(100-p)/100 < 10-1e-9 {
			t.Errorf("n=%d: p%v leaves fewer than ten samples beyond it", tc.n, p)
		}
	}
}

// TestQuartilesMatchPython checks the quartiles against values printed by
// Python's statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.1, 1.2, 5.5, 2.0, 4.4}, [3]float64{1.6, 3.1, 4.95}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{7, 7, 7, 9}, [3]float64{7, 7, 8.5}},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, [3]float64{30, 60, 90}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-tc.want[i]) > 1e-9 {
				t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
				break
			}
		}
	}
}

func TestJudge(t *testing.T) {
	ten := func(base, step float64) []float64 {
		var xs []float64
		for i := 0; i < 10; i++ {
			xs = append(xs, base+step*float64(i%3))
		}
		return xs
	}
	for _, tc := range []struct {
		name     string
		old, new []float64
		better   string
		want     string
	}{
		{"same", ten(100, 1), ten(100.5, 1), "lower", verdictSame},
		{"gain", ten(100, 1), ten(90, 1), "lower", verdictGain},
		{"regression", ten(100, 1), ten(120, 1), "lower", verdictRegression},
		{"higher is better", ten(100, 1), ten(120, 1), "higher", verdictGain},
		{"too few pairs for a gain", ten(100, 1)[:5], ten(90, 1)[:5], "lower", verdictSame},
		{"spread wider than the bound", []float64{80, 120, 100, 90, 110}, []float64{100, 101, 99, 100, 100}, "lower", verdictUnresolved},
		{"every run better despite spread", []float64{100, 140, 120, 110, 130}, []float64{95, 90, 96, 97, 98}, "lower", verdictBetter},
	} {
		if got := judge(tc.old, tc.new, tc.better, 0.1).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}
