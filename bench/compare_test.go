package main

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestCompareShowsRawRegression checks that a slowdown the calibration
// hides still shows as a regression of the uncalibrated row, and that
// only calibrated rows count toward the exit status.
func TestCompareShowsRawRegression(t *testing.T) {
	var sp spec
	err := json.Unmarshal([]byte(`{"workloads": [{"name": "w"}],
		"end_to_end": [{"name": "latency_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1}]}`), &sp)
	if err != nil {
		t.Fatal(err)
	}
	runs := func(calibrated, raw float64) map[string][]*result {
		var rs []*result
		for i := 0; i < 10; i++ {
			r := &result{Workload: "w", Raw: &rawValues{LatencyMS: raw}}
			r.Attempted = 1
			r.Metrics = map[string]metric{"latency_ms_p50": {Value: calibrated, Unit: "ms"}}
			rs = append(rs, r)
		}
		return map[string][]*result{"w": rs}
	}
	var out strings.Builder
	if n := compare(&out, &sp, runs(100, 100), runs(101, 130)); n != 0 {
		t.Errorf("compare counted %d regressions, want 0: the calibrated metric is within its bound\n%s", n, out.String())
	}
	var raw string
	for _, l := range strings.Split(out.String(), "\n") {
		if strings.Contains(l, "latency_ms_p50 (raw)") {
			raw = l
		}
	}
	if !strings.Contains(raw, verdictRegression) {
		t.Errorf("uncalibrated row %q, want a %s verdict\n%s", raw, verdictRegression, out.String())
	}
}
