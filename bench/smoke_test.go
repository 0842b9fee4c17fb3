package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for fencebench as a workload's
// child process: the parent re-executes its own binary.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

func loadRepoSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

// TestSpecMatchesCatalogue keeps BENCHMARK.json and the metrics this
// program emits in step, names and units alike.
func TestSpecMatchesCatalogue(t *testing.T) {
	sp := loadRepoSpec(t)
	for _, tc := range []struct {
		kind string
		spec []specMetric
		defs []metricDef
	}{{"end_to_end", sp.EndToEnd, endToEnd}, {"per_layer", sp.PerLayer, perLayer}} {
		want := map[string]string{}
		for _, d := range tc.defs {
			want[d.name] = d.unit
		}
		got := map[string]string{}
		for _, m := range tc.spec {
			got[m.Name] = m.Unit
		}
		if len(got) != len(tc.spec) {
			t.Errorf("%s: duplicate metric names", tc.kind)
		}
		for name, unit := range want {
			if got[name] != unit {
				t.Errorf("%s: %s has unit %q in BENCHMARK.json, the program emits %q", tc.kind, name, got[name], unit)
			}
		}
		for name := range got {
			if _, ok := want[name]; !ok {
				t.Errorf("%s: BENCHMARK.json lists %s, which the program does not emit", tc.kind, name)
			}
		}
	}
	var names []string
	for _, w := range sp.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames(), ",") {
		t.Errorf("BENCHMARK.json workloads %v, program workloads %v", names, workloadNames())
	}
}

// TestSmoke runs every workload at minimal length, untraced and traced,
// through the parent and a child process, and checks the output line:
// exactly the metric names BENCHMARK.json lists, every op correct.
func TestSmoke(t *testing.T) {
	sp := loadRepoSpec(t)
	names := func(ms []specMetric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			if testing.Short() && w.name == "cert-large" {
				continue // its runs certify szymanski 2 to 6 times: ~19 s
			}
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				args := []string{"--workload", w.name, "--seconds", "0.01", "--trace", trace, "--root", ".."}
				if code := parentMain(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var out map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
					t.Fatal(err)
				}
				if keys := sortedKeys(out); strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
					t.Fatalf("output line has keys %v", keys)
				}
				var l line
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &l); err != nil {
					t.Fatal(err)
				}
				if !l.Correct || l.Failed != 0 || l.Attempted < 1 {
					t.Fatalf("correct=%v failed=%d attempted=%d\n%s", l.Correct, l.Failed, l.Attempted, stderr.String())
				}
				want := names(sp.EndToEnd)
				if trace == "1" {
					want = names(sp.PerLayer)
				}
				if got := sortedKeys(l.Metrics); strings.Join(got, ",") != strings.Join(want, ",") {
					t.Fatalf("metrics %v, want %v", got, want)
				}
				if trace == "0" {
					for name, m := range l.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
						}
					}
				}
			})
		}
	}
}
