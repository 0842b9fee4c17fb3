package main

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"fenceplace"
	"fenceplace/corpus"
	"fenceplace/internal/progs"
)

func TestTable2AndFig2Render(t *testing.T) {
	if s := renderTable2(); !strings.Contains(s, "chaselev") || !strings.Contains(s, "matches the paper") {
		t.Errorf("Table II incomplete:\n%s", s)
	}
	if s := renderFig2(); !strings.Contains(s, "5 fences") || !strings.Contains(s, "2 fences") {
		t.Errorf("Figure 2 worked example does not reproduce 5 -> 2:\n%s", s)
	}
}

// TestCertTableRenders certifies the kernel corpus without a store and
// checks the table carries verdicts and the warm-vs-cold footer.
func TestCertTableRenders(t *testing.T) {
	t.Setenv("FENCEPLACE_CACHE_DIR", "") // never read or write the operator's cache
	var out strings.Builder
	opts := []fenceplace.Option{fenceplace.WithMaxStates(1 << 20), fenceplace.WithCacheDir("")}
	rep, err := runCert(context.Background(), &out, 0, 0, 0, opts, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) == 0 {
		t.Fatal("empty certification set")
	}
	s := out.String()
	if !strings.Contains(s, "certified") || !strings.Contains(s, "peterson") {
		t.Errorf("certification table incomplete:\n%s", s)
	}
	for _, footer := range []string{"SC explorations:", "TSO explorations:"} {
		if !strings.Contains(s, footer) {
			t.Errorf("certification table missing the %q footer:\n%s", footer, s)
		}
	}
}

// TestFailedRunLeavesValidTrace renders Figure 10 from a certification
// report, which has no dynamic runs, so the run fails with exit 1. The
// -trace file must still be finalized into valid JSON on that path.
func TestFailedRunLeavesValidTrace(t *testing.T) {
	if args := os.Getenv("PAPERBENCH_ARGS"); args != "" {
		os.Exit(run(strings.Split(args, "\n")))
	}
	dir := t.TempDir()
	m := progs.ByName("dekker")
	runner := corpus.Runner{Certify: true, Options: []fenceplace.Option{fenceplace.WithCacheDir("")}}
	rep, err := runner.Run(context.Background(), corpus.SingleSource("dekker", m.Build(m.CertParams(0, 0)), nil))
	if err != nil {
		t.Fatal(err)
	}
	certJSON, trace := filepath.Join(dir, "c.json"), filepath.Join(dir, "t.json")
	f, err := os.Create(certJSON)
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.EncodeJSON(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(os.Args[0], "-test.run=^TestFailedRunLeavesValidTrace$")
	cmd.Env = append(os.Environ(), "PAPERBENCH_ARGS="+strings.Join([]string{"-merge", certJSON, "-fig10", "-trace", trace}, "\n"))
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if !errors.As(err, &ee) || ee.ExitCode() != 1 {
		t.Fatalf("want exit code 1, got %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "figure 10 failed") {
		t.Errorf("stderr does not report the figure 10 failure:\n%s", out)
	}
	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var events []any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace file is not valid JSON after exit 1: %v\n%q", err, raw)
	}
}
