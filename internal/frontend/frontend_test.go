package frontend

import (
	"path/filepath"
	"strings"
	"testing"

	"fenceplace/internal/ir"
)

// TestLowerCorpus lowers every Go twin in testdata/gosource and checks
// the result is a valid program that survives a Format→Parse→Format
// round trip. The outcome-level differential against the hand-built
// originals lives in the root package's gosource_test.go.
func TestLowerCorpus(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/gosource/*.go")
	if err != nil || len(paths) == 0 {
		t.Fatalf("testdata/gosource corpus missing: %v (%d files)", err, len(paths))
	}
	for _, path := range paths {
		t.Run(filepath.Base(path), func(t *testing.T) {
			prog, err := LowerFile(path)
			if err != nil {
				t.Fatalf("LowerFile(%s): %v", path, err)
			}
			if err := prog.Validate(); err != nil {
				t.Fatalf("lowered program invalid: %v", err)
			}
			if prog.Main != "main" {
				t.Fatalf("Main = %q, want main", prog.Main)
			}
			text := ir.Format(prog)
			back, err := ir.Parse(text)
			if err != nil {
				t.Fatalf("formatted program does not parse back: %v\n%s", err, text)
			}
			if again := ir.Format(back); again != text {
				t.Fatalf("format not stable for %s", path)
			}
		})
	}
}

// TestLowerNoMain checks a litmus-style file without func main lowers to
// a program with an empty entry point.
func TestLowerNoMain(t *testing.T) {
	src := `package p

var x int64

func t0() { x = 1 }
`
	prog, err := Lower("p.go", []byte(src))
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	if prog.Main != "" {
		t.Fatalf("Main = %q, want empty", prog.Main)
	}
}

// diagCase is one rejected construct and the documented code plus exact
// position the frontend must report for it.
type diagCase struct {
	name string
	src  string
	code Code
	line int
	col  int
}

func TestDiagnostics(t *testing.T) {
	cases := []diagCase{
		{
			name: "channel send",
			src:  "package p\n\nvar ch chan int64\n\nfunc main() {\n\tch <- 1\n}\n",
			code: CodeChan, line: 6, col: 2,
		},
		{
			name: "map access",
			src:  "package p\n\nvar m map[int64]int64\n\nfunc main() {\n\tm[0] = 1\n}\n",
			code: CodeMap, line: 6, col: 2,
		},
		{
			name: "closure capture",
			src:  "package p\n\nvar x int64\n\nfunc main() {\n\tf := func() { x = 1 }\n\tf()\n}\n",
			code: CodeClosure, line: 6, col: 7,
		},
		{
			name: "interface call",
			src:  "package p\n\nvar e interface{ M() }\n\nfunc main() {\n\te.M()\n}\n",
			code: CodeInterface, line: 6, col: 2,
		},
		{
			name: "slice global",
			src:  "package p\n\nvar s []int64\n\nfunc main() {}\n",
			code: CodeSlice, line: 3, col: 5,
		},
		{
			name: "defer",
			src:  "package p\n\nfunc g() {}\n\nfunc main() {\n\tdefer g()\n}\n",
			code: CodeDefer, line: 6, col: 2,
		},
		{
			name: "select",
			src:  "package p\n\nfunc main() {\n\tselect {}\n}\n",
			code: CodeChan, line: 4, col: 2,
		},
		{
			name: "range loop",
			src:  "package p\n\nvar a [4]int64\n\nfunc main() {\n\tfor range a {\n\t}\n}\n",
			code: CodeStmt, line: 6, col: 2,
		},
		{
			name: "go closure",
			src:  "package p\n\nfunc main() {\n\tgo func() {}()\n}\n",
			code: CodeClosure, line: 4, col: 5,
		},
		{
			name: "bad atomic address",
			src:  "package p\n\nimport \"sync/atomic\"\n\nfunc main() {\n\tvar x int64\n\tatomic.StoreInt64(&x, 1)\n}\n",
			code: CodeAtomic, line: 7, col: 20,
		},
		{
			name: "disallowed import",
			src:  "package p\n\nimport \"fmt\"\n\nfunc main() {\n\tfmt.Println(1)\n}\n",
			code: CodeImport, line: 3, col: 8,
		},
		{
			name: "parse error",
			src:  "package p\n\nfunc main() {\n",
			code: CodeParse, line: 3, col: 15,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Lower("t.go", []byte(tc.src))
			if err == nil {
				t.Fatalf("Lower accepted a file with a %s construct", tc.name)
			}
			diags, ok := err.(DiagList)
			if !ok {
				t.Fatalf("error is %T, want DiagList: %v", err, err)
			}
			for _, d := range diags {
				if d.Code == tc.code && d.Pos.Line == tc.line && d.Pos.Column == tc.col {
					return
				}
			}
			t.Fatalf("no [%s] diagnostic at %d:%d; got:\n%v", tc.code, tc.line, tc.col, err)
		})
	}
}

// TestDiagnosticsCollected checks one pass reports every problem in the
// file, not just the first.
func TestDiagnosticsCollected(t *testing.T) {
	src := `package p

var ch chan int64
var m map[int64]int64

func main() {
	ch <- 1
	m[0] = 1
	f := func() {}
	f()
}
`
	_, err := Lower("multi.go", []byte(src))
	if err == nil {
		t.Fatal("Lower accepted a file full of rejected constructs")
	}
	for _, code := range []Code{CodeChan, CodeMap, CodeClosure} {
		if !strings.Contains(err.Error(), "["+string(code)+"]") {
			t.Errorf("diagnostics missing code [%s]:\n%v", code, err)
		}
	}
}
