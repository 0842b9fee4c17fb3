package fenceplace_test

import (
	"context"
	"path/filepath"
	"sort"
	"testing"

	"fenceplace"
	"fenceplace/internal/mc"
	"fenceplace/internal/progs"
	"fenceplace/internal/tso"
)

// twinPairs maps each testdata/gosource twin onto the hand-built
// original it mirrors and the parameters the original is built at. The
// twins hardcode these sizes (const size), so the pair explores the same
// state space.
var twinPairs = []struct {
	name   string
	file   string
	params progs.Params
}{
	{"dekker", "dekker.go", progs.Params{Threads: 2, Size: 2}},
	{"peterson", "peterson.go", progs.Params{Threads: 2, Size: 2}},
	{"treiber", "treiber.go", progs.Params{Threads: 2, Size: 1}},
	{"spinlock", "spinlock.go", progs.Params{Threads: 2, Size: 2}},
}

func lookupProg(t *testing.T, name string) *progs.Meta {
	t.Helper()
	for _, m := range progs.All() {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("program %q not in the registry", name)
	return nil
}

// certProfile is everything the differential compares: the SC outcome
// set of the uninstrumented program and, per strategy, the certification
// verdict with its outcome counts.
type certProfile struct {
	scKeys   []string
	verdicts map[fenceplace.Strategy][3]int64 // equivalent(0/1), #SC, #TSO
}

func profile(t *testing.T, prog *fenceplace.Program) certProfile {
	t.Helper()
	ctx := context.Background()
	az := fenceplace.NewAnalyzer(prog)

	sc, err := mc.ExploreCompleteCtx(ctx, prog, nil, mc.Config{Mode: tso.SC})
	if err != nil {
		t.Fatalf("%s: SC exploration: %v", prog.Name, err)
	}
	p := certProfile{verdicts: make(map[fenceplace.Strategy][3]int64)}
	for k := range sc.Outcomes {
		p.scKeys = append(p.scKeys, k)
	}
	sort.Strings(p.scKeys)

	strategies := []fenceplace.Strategy{
		fenceplace.PensieveOnly, fenceplace.Control, fenceplace.AddressControl,
	}
	results, err := az.AnalyzeAllCtx(ctx, strategies...)
	if err != nil {
		t.Fatalf("%s: analyze: %v", prog.Name, err)
	}
	for _, res := range results {
		rep, err := az.CertifyProgramCtx(ctx, res.Instrumented, nil)
		if err != nil {
			t.Fatalf("%s/%s: certify: %v", prog.Name, res.Strategy, err)
		}
		eq := int64(0)
		if rep.Equivalent {
			eq = 1
		}
		p.verdicts[res.Strategy] = [3]int64{eq, int64(rep.SCOutcomes), int64(rep.TSOOutcomes)}
	}
	return p
}

// TestGoTwinsMatchHandBuilt is the frontend's differential pin: each
// real-Go twin in testdata/gosource must lower to IR whose SC outcome
// set and per-strategy certification verdicts are identical to the
// hand-built original in internal/progs. A lowering change that alters
// any observable shared-memory behavior fails here.
func TestGoTwinsMatchHandBuilt(t *testing.T) {
	if testing.Short() {
		t.Skip("differential certification is not a -short test")
	}
	for _, pair := range twinPairs {
		t.Run(pair.name, func(t *testing.T) {
			t.Parallel()
			orig := lookupProg(t, pair.name).Build(pair.params)
			twin, err := fenceplace.ParseGoFile(filepath.Join("testdata", "gosource", pair.file))
			if err != nil {
				t.Fatalf("ParseGoFile: %v", err)
			}

			want := profile(t, orig)
			got := profile(t, twin)

			if len(want.scKeys) != len(got.scKeys) {
				t.Fatalf("SC outcome sets differ: hand-built %d, twin %d\nhand-built: %v\ntwin: %v",
					len(want.scKeys), len(got.scKeys), want.scKeys, got.scKeys)
			}
			for i := range want.scKeys {
				if want.scKeys[i] != got.scKeys[i] {
					t.Fatalf("SC outcome %d differs: hand-built %q, twin %q", i, want.scKeys[i], got.scKeys[i])
				}
			}
			for s, w := range want.verdicts {
				g := got.verdicts[s]
				if w != g {
					t.Errorf("%s: verdict differs: hand-built (eq=%d sc=%d tso=%d), twin (eq=%d sc=%d tso=%d)",
						s, w[0], w[1], w[2], g[0], g[1], g[2])
				}
			}
		})
	}
}

// TestAnalyzeSourceCtx pins the one-call source entry point: Go source
// in, fence-placement result out.
func TestAnalyzeSourceCtx(t *testing.T) {
	src := `package sb

import "sync"

var (
	x int64
	y int64
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
	res, err := fenceplace.AnalyzeSourceCtx(context.Background(), "sb.go", []byte(src), fenceplace.PensieveOnly)
	if err != nil {
		t.Fatalf("AnalyzeSourceCtx: %v", err)
	}
	if res.FullFences == 0 {
		t.Fatal("store-buffering source got no full fences; the w->r orderings were lost in lowering")
	}
	if err := res.Verify(); err != nil {
		t.Fatalf("plan verification: %v", err)
	}
}

// TestAnalyzeSourceCtxDiagnostics pins the error path: subset violations
// surface as a position-sorted diagnostic list, not a lowered program.
func TestAnalyzeSourceCtxDiagnostics(t *testing.T) {
	src := "package p\n\nvar ch chan int64\n\nfunc main() {\n\tch <- 1\n}\n"
	_, err := fenceplace.AnalyzeSourceCtx(context.Background(), "p.go", []byte(src), fenceplace.PensieveOnly)
	if err == nil {
		t.Fatal("AnalyzeSourceCtx accepted a channel program")
	}
	diags, ok := err.(fenceplace.SourceDiagList)
	if !ok {
		t.Fatalf("error is %T, want SourceDiagList: %v", err, err)
	}
	if len(diags) == 0 {
		t.Fatal("empty diagnostic list")
	}
}
