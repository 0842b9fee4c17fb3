package main

import (
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"

	"fenceplace/corpus"
)

// The golden oracle. Every output a workload produces is checked against
// values recorded in testdata/ and any mismatch fails the op. Recorded are
// only results the determinism contract (see README.md) promises to repeat
// on every run and at every worker count: certification verdicts, SC and
// TSO outcome counts, rendered evaluation tables and fence counts. Visit
// counts are left out: above one exploration worker they depend on the
// schedule.

//go:embed testdata/golden.json testdata/eval_tables.txt
var goldenFiles embed.FS

const (
	goldenJSON   = "testdata/golden.json"
	goldenTables = "testdata/eval_tables.txt"
)

// verdict is the recorded outcome of one certification cell.
type verdict struct {
	Status string `json:"status"`
	SC     int    `json:"sc_outcomes"`
	TSO    int    `json:"tso_outcomes"`
}

// golden holds every recorded expectation.
type golden struct {
	// Certs maps a case ("cert-kernels/dekker", "service/go:treiber.go:all")
	// to its variants' verdicts, by variant name.
	Certs map[string]map[string]verdict `json:"certs"`
	// Fences maps each testdata/gosource file to its full-fence count per
	// strategy.
	Fences map[string]map[string]int `json:"gosource_fences"`
	// Tables is the eval-static pass's rendered Figures 7-10 and Manual
	// table, byte for byte.
	Tables string `json:"-"`
}

// loadGolden reads the embedded oracle.
func loadGolden() (*golden, error) {
	data, err := goldenFiles.ReadFile(goldenJSON)
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", goldenJSON, err)
	}
	tables, err := goldenFiles.ReadFile(goldenTables)
	if err != nil {
		return nil, err
	}
	g.Tables = string(tables)
	return &g, nil
}

// verdictOf reduces a report variant to its recorded form.
func verdictOf(v corpus.Variant) verdict {
	if v.Cert == nil {
		return verdict{Status: "uncertified"}
	}
	return verdict{Status: v.Cert.Status, SC: v.Cert.SCOutcomes, TSO: v.Cert.TSOOutcomes}
}

// checkRow compares a certified row with the case's recorded verdicts and
// returns one description per wrong, missing or unexpected cell.
func (g *golden) checkRow(kase string, row *corpus.Row) []string {
	want, ok := g.Certs[kase]
	if !ok {
		return []string{kase + ": no golden verdicts recorded"}
	}
	var bad []string
	seen := map[string]bool{}
	for _, v := range row.Variants {
		seen[v.Name] = true
		w, ok := want[v.Name]
		got := verdictOf(v)
		switch {
		case !ok:
			bad = append(bad, fmt.Sprintf("%s/%s: unexpected variant", kase, v.Name))
		case got != w:
			bad = append(bad, fmt.Sprintf("%s/%s: got %+v, want %+v", kase, v.Name, got, w))
		}
	}
	for _, name := range sortedKeys(want) {
		if !seen[name] {
			bad = append(bad, fmt.Sprintf("%s/%s: variant missing", kase, name))
		}
	}
	return bad
}

// record stores a row's verdicts as the case's expectation.
func (g *golden) record(kase string, row *corpus.Row) {
	if g.Certs == nil {
		g.Certs = map[string]map[string]verdict{}
	}
	m := map[string]verdict{}
	for _, v := range row.Variants {
		m[v.Name] = verdictOf(v)
	}
	g.Certs[kase] = m
}

// write stores the oracle under root's bench/testdata.
func (g *golden) write(root string) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	dir := filepath.Join(root, "bench")
	if err := os.WriteFile(filepath.Join(dir, goldenJSON), append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, goldenTables), []byte(g.Tables), 0o644)
}

// monotoneFences checks the paper's ordering of the strategies on one
// row: Control places no more full fences than Address+Control, which
// places no more than Pensieve.
func monotoneFences(row *corpus.Row) error {
	f := map[string]int{}
	for _, v := range row.Variants {
		f[v.Name] = v.FullFences
	}
	ctl, ac, pens := f["Control"], f["Address+Control"], f["Pensieve"]
	if ctl > ac || ac > pens {
		return fmt.Errorf("%s: fences not monotone: Control %d, Address+Control %d, Pensieve %d", row.Program, ctl, ac, pens)
	}
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
