package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"fenceplace"
	"fenceplace/internal/progs"
)

// certInstance is certify's corpus instantiation at its default flags.
func certInstance(m *progs.Meta) *fenceplace.Program { return m.Build(m.CertParams(2, 0)) }

// runMain runs the command in a child process (this test binary,
// re-executed into TestMain) and returns its stdout, stderr and exit code.
func runMain(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "FENCEPLACE_CACHE_DIR=",
		"FENCEPLACE_MAIN_ARGS="+strings.Join(args, "\n"))
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var ee *exec.ExitError
	if err != nil && !errors.As(err, &ee) {
		t.Fatalf("fenceplace %s: %v", strings.Join(args, " "), err)
	}
	return out.String(), errOut.String(), cmd.ProcessState.ExitCode()
}

// TestMain runs main in place of the tests when runMain re-executes the
// binary with FENCEPLACE_MAIN_ARGS set.
func TestMain(m *testing.M) {
	if args, ok := os.LookupEnv("FENCEPLACE_MAIN_ARGS"); ok {
		os.Args = []string{"fenceplace"}
		if args != "" {
			os.Args = append(os.Args, strings.Split(args, "\n")...)
		}
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

const goSB = `package sb

import "sync"

var (
	x  int64
	y  int64
	r0 int64
	r1 int64
)

var wg sync.WaitGroup

func t0() {
	defer wg.Done()
	x = 1
	r0 = y
}

func t1() {
	defer wg.Done()
	y = 1
	r1 = x
}

func main() {
	wg.Add(2)
	go t0()
	go t1()
	wg.Wait()
}
`

// TestLoadProgramInputErrors pins the bad-input contract: the error
// names the offending path, the detected format, and the valid input
// kinds (main maps any loadProgram error to exit code 2).
func TestLoadProgramInputErrors(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.go")
	if err := os.WriteFile(empty, []byte("  \n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		file  string
		wants []string
	}{
		{"unreadable", "/nonexistent/prog.ir", []string{"/nonexistent/prog.ir", "valid inputs"}},
		{"empty go file", empty, []string{empty, "Go source", "valid inputs"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, _, err := loadProgram("", tc.file, certInstance)
			if err == nil {
				t.Fatalf("loadProgram accepted %s", tc.file)
			}
			for _, want := range tc.wants {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error does not mention %q:\n%v", want, err)
				}
			}
		})
	}
}

// TestLoadProgramDispatch pins extension dispatch: .go lowers through
// the frontend, anything else parses as textual IR — including IR that
// was itself produced from lowered Go source.
func TestLoadProgramDispatch(t *testing.T) {
	dir := t.TempDir()
	goFile := filepath.Join(dir, "sb.go")
	if err := os.WriteFile(goFile, []byte(goSB), 0o644); err != nil {
		t.Fatal(err)
	}
	name, prog, err := loadProgram("", goFile, certInstance)
	if err != nil {
		t.Fatalf("loadProgram(.go): %v", err)
	}
	if name != "sb" || prog == nil || prog.Main != "main" {
		t.Fatalf("loadProgram(.go) = (%q, %v), want sb with main entry", name, prog)
	}

	irFile := filepath.Join(dir, "sb.ir")
	if err := os.WriteFile(irFile, []byte(fenceplace.Format(prog)), 0o644); err != nil {
		t.Fatal(err)
	}
	name, prog2, err := loadProgram("", irFile, certInstance)
	if err != nil {
		t.Fatalf("loadProgram(.ir): %v", err)
	}
	if name != "sb" || fenceplace.Format(prog2) != fenceplace.Format(prog) {
		t.Fatalf("IR round trip through loadProgram drifted")
	}

	badGo := filepath.Join(dir, "bad.go")
	if err := os.WriteFile(badGo, []byte("package p\n\nfunc main() {\n\tch := make(chan int64)\n\tch <- 1\n}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = loadProgram("", badGo, certInstance)
	if err == nil {
		t.Fatal("loadProgram accepted out-of-subset Go")
	}
	if !strings.Contains(err.Error(), "Go source") || !strings.Contains(err.Error(), badGo) {
		t.Errorf("subset error does not name file and format:\n%v", err)
	}
}

// TestBadInputExitCode runs the real binary path: bad -file input must
// terminate with the inconclusive exit code 2, never 0 or 1, in both
// subcommands that read programs.
func TestBadInputExitCode(t *testing.T) {
	empty := filepath.Join(t.TempDir(), "empty.ir")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, file := range map[string]string{
		"unreadable": "/nonexistent/prog.ir",
		"empty":      empty,
	} {
		t.Run(name, func(t *testing.T) {
			for _, sub := range []string{"analyze", "certify"} {
				_, stderr, code := runMain(t, sub, "-file", file)
				if code != 2 {
					t.Fatalf("%s: exit code = %d, want 2\n%s", sub, code, stderr)
				}
				if !strings.Contains(stderr, file) || !strings.Contains(stderr, "valid inputs") {
					t.Errorf("%s: stderr does not name the path and valid input kinds:\n%s", sub, stderr)
				}
			}
		})
	}
}

// TestExitCodes pins each subcommand's exit status: certify's three-valued
// verdict code, litmus's 0 when every outcome matches its model, and 2
// for usage and input errors. TestTruncatedCertifyExitCode pins the code
// of a truncated certification.
func TestExitCodes(t *testing.T) {
	cases := []struct {
		args   []string
		code   int
		stdout string // a substring stdout must contain
	}{
		{[]string{"certify", "-prog", "dekker"}, 0, "SC-equivalent"},
		{[]string{"certify", "-prog", "dekker", "-unfenced"}, 1, "non-SC outcome"},
		{[]string{"certify", "-prog", "dekker", "-budget", "-5"}, 0, "SC-equivalent"}, // <= 0 means the default
		{[]string{"certify", "-prog", "nosuch"}, 2, ""},
		{[]string{"analyze", "-prog", "nosuch"}, 2, ""},
		// -strategy is parsed before any work, in every mode.
		{[]string{"analyze", "-prog", "dekker", "-annotate", "-strategy", "bogus"}, 2, ""},
		{[]string{"analyze", "-list", "-strategy", "bogus"}, 2, ""},
		// -annotate prints annotations only; flags about fences are usage errors.
		{[]string{"analyze", "-prog", "dekker", "-annotate", "-dump"}, 2, ""},
		{[]string{"analyze", "-prog", "dekker", "-annotate", "-run"}, 2, ""},
		{[]string{"analyze", "-prog", "dekker", "-annotate", "-timing"}, 2, ""},
		{[]string{"analyze", "-prog", "dekker", "-annotate", "-strategy", "control"}, 2, ""},
		{[]string{"analyze", "-prog", "dekker", "-annotate", "-strategy", "all"}, 0, "minimal DRF annotations"},
		{[]string{"analyze", "-prog", "dekker", "-annotate"}, 0, "minimal DRF annotations"},
		{[]string{"nosuch"}, 2, ""},
		{[]string{}, 2, ""},
		{[]string{"litmus"}, 0, "verdict"},
	}
	for _, tc := range cases {
		name := strings.Join(tc.args, " ")
		if name == "" {
			name = "no command"
		}
		t.Run(name, func(t *testing.T) {
			stdout, stderr, code := runMain(t, tc.args...)
			if code != tc.code {
				t.Fatalf("exit code = %d, want %d\nstdout:\n%s\nstderr:\n%s", code, tc.code, stdout, stderr)
			}
			if !strings.Contains(stdout, tc.stdout) {
				t.Errorf("stdout does not contain %q:\n%s", tc.stdout, stdout)
			}
		})
	}
}

// TestTruncatedCertifyExitCode: a certification whose state budget runs
// out is inconclusive, never a verdict, so it exits 2 like an error. The
// budget comes from a full one-worker run of szymanski and closes the SC
// side but not the TSO side: the SC baseline completes and the TSO
// exploration, whose outcomes decide the verdict, is cut.
func TestTruncatedCertifyExitCode(t *testing.T) {
	stdout, stderr, code := runMain(t, "certify", "-prog", "szymanski", "-workers", "1", "-json")
	if code != 0 {
		t.Fatalf("full run: exit code = %d, want 0\n%s", code, stderr)
	}
	var full struct {
		Rows []struct {
			Variants []struct {
				Cert struct {
					VisitedSC  int64 `json:"visited_sc"`
					VisitedTSO int64 `json:"visited_tso"`
				} `json:"cert"`
			} `json:"variants"`
		} `json:"rows"`
	}
	if err := json.Unmarshal([]byte(stdout), &full); err != nil || len(full.Rows) != 1 || len(full.Rows[0].Variants) != 1 {
		t.Fatalf("full run: want one certified variant, got %v:\n%s", err, stdout)
	}
	c := full.Rows[0].Variants[0].Cert
	budget := (c.VisitedSC + c.VisitedTSO) / 2
	if c.VisitedSC > budget || budget >= c.VisitedTSO {
		t.Fatalf("szymanski explores %d SC / %d TSO states at one worker: no budget closes the SC side only",
			c.VisitedSC, c.VisitedTSO)
	}
	_, stderr, code = runMain(t, "certify", "-prog", "szymanski", "-workers", "1", "-budget", strconv.FormatInt(budget, 10))
	if code != 2 {
		t.Fatalf("budget %d: exit code = %d, want 2\n%s", budget, code, stderr)
	}
	if !strings.Contains(stderr, "TSO exploration") || !strings.Contains(stderr, "raise -budget") {
		t.Errorf("budget %d: stderr does not report a truncated TSO exploration:\n%s", budget, stderr)
	}
}

// TestAnalyzeGoFile checks analyze reads restricted-Go source through the
// same loader as certify and prints one summary per strategy.
func TestAnalyzeGoFile(t *testing.T) {
	stdout, stderr, code := runMain(t, "analyze", "-file", filepath.Join("..", "..", "testdata", "gosource", "treiber.go"))
	if code != 0 {
		t.Fatalf("exit code = %d, want 0\n%s", code, stderr)
	}
	for _, s := range []string{"Pensieve:", "Address+Control:", "Control:", "full fences"} {
		if !strings.Contains(stdout, s) {
			t.Errorf("summary lacks %q:\n%s", s, stdout)
		}
	}
}
