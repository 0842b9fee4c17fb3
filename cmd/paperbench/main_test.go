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
)

// TestMain runs the command in place of the tests when runPaperbench
// re-executes the binary with PAPERBENCH_ARGS set.
func TestMain(m *testing.M) {
	if args := os.Getenv("PAPERBENCH_ARGS"); args != "" {
		os.Exit(run(strings.Split(args, "\n")))
	}
	os.Exit(m.Run())
}

// runPaperbench runs the command in a child process (this test binary,
// re-executed into TestMain) and returns its combined output and exit code.
func runPaperbench(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "FENCEPLACE_CACHE_DIR=", "PAPERBENCH_ARGS="+strings.Join(args, "\n"))
	out, err := cmd.CombinedOutput()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatalf("paperbench %s: %v", strings.Join(args, " "), err)
	}
	return string(out), cmd.ProcessState.ExitCode()
}

func TestTable2AndFig2Render(t *testing.T) {
	if s := renderTable2(); !strings.Contains(s, "chaselev") || !strings.Contains(s, "matches the paper") {
		t.Errorf("Table II incomplete:\n%s", s)
	}
	if s := renderFig2(); !strings.Contains(s, "5 fences") || !strings.Contains(s, "2 fences") {
		t.Errorf("Figure 2 worked example does not reproduce 5 -> 2:\n%s", s)
	}
}

// TestCertTableRenders certifies the kernel corpus without a store and
// checks the table carries verdicts and the warm-vs-cold footer. The
// footer pins the exploration counts: one SC baseline per kernel, and one
// TSO exploration per TSO-distinct build. Control and Address+Control
// place the same fences, and in 8 of the 9 kernels Pensieve's build adds
// only entry fences that drain an empty store buffer, so 36 cells explore
// 9 Manual + 9 Control + 1 Pensieve (clh) builds.
func TestCertTableRenders(t *testing.T) {
	t.Setenv("FENCEPLACE_CACHE_DIR", "") // never read or write the operator's cache
	var out strings.Builder
	opts := []fenceplace.Option{fenceplace.WithMaxStates(1 << 20), fenceplace.WithCacheDir("")}
	rep, err := runCert(context.Background(), &out, 0, opts, "")
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
	for _, footer := range []string{"\nSC explorations: 9\n", "\nTSO explorations: 19\n"} {
		if !strings.Contains(s, footer) {
			t.Errorf("certification table missing the %q footer:\n%s", footer, s)
		}
	}
}

// TestFailedRunLeavesValidTrace points -json at a directory, so writing
// the report fails after the figures rendered and the run exits 1. The
// -trace file must still be finalized into valid JSON on that path.
func TestFailedRunLeavesValidTrace(t *testing.T) {
	dir := t.TempDir()
	trace := filepath.Join(dir, "t.json")
	out, code := runPaperbench(t, "-fig7", "-json", dir, "-trace", trace)
	if code != 1 {
		t.Fatalf("want exit code 1, got %d\n%s", code, out)
	}
	if !strings.Contains(out, "writing report") {
		t.Errorf("stderr does not report the failed write:\n%s", out)
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

// TestUsageErrors pins the flag combinations that are refused with exit 2
// before any work runs: -json when no selected section produces a report,
// and -seeds below 1 when Figure 10 renders. Nothing is printed to stdout
// and no report file is written.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-table2"}, "produce no report"},
		{[]string{"-fig2"}, "produce no report"},
		{[]string{"-seeds", "0", "-fig10"}, "at least one simulator seed"},
		{[]string{"-seeds", "0"}, "at least one simulator seed"}, // every section, Figure 10 included
	} {
		jsonPath := filepath.Join(t.TempDir(), "r.json")
		args := append(tc.args, "-json", jsonPath)
		out, code := runPaperbench(t, args...)
		if code != 2 {
			t.Errorf("%v: exit code %d, want 2\n%s", args, code, out)
		}
		if !strings.Contains(out, tc.want) || strings.Contains(out, "acquire signatures") {
			t.Errorf("%v: want only a usage error mentioning %q, got:\n%s", args, tc.want, out)
		}
		if _, err := os.Stat(jsonPath); err == nil {
			t.Errorf("%v: a report file was written", args)
		}
	}
}
