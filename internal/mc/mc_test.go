package mc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"fenceplace/internal/ir"
	"fenceplace/internal/tso"
)

// sb builds the store-buffering litmus; the non-SC outcome is o0=o1=0.
func sb(fenced bool) *ir.Program {
	pb := ir.NewProgram("sb")
	x := pb.Global("x", 1)
	y := pb.Global("y", 1)
	o0 := pb.Global("o0", 1)
	o1 := pb.Global("o1", 1)
	t0 := pb.Func("t0", 0)
	t0.Store(x, t0.Const(1))
	if fenced {
		t0.Fence(ir.FenceFull)
	}
	t0.Store(o0, t0.Load(y))
	t0.RetVoid()
	t1 := pb.Func("t1", 0)
	t1.Store(y, t1.Const(1))
	if fenced {
		t1.Fence(ir.FenceFull)
	}
	t1.Store(o1, t1.Load(x))
	t1.RetVoid()
	return pb.MustBuild()
}

// certify decides orig vs inst the way the pipeline does: one SC
// baseline, then the TSO exploration of inst compared against it.
func certify(orig, inst *ir.Program, threadFns []string, cfg Config) (*Report, error) {
	base, err := NewBaselineCtx(context.Background(), orig, threadFns, cfg)
	if err != nil {
		return nil, err
	}
	return CertifyAgainstCtx(context.Background(), base, inst, cfg)
}

func keySet(outcomes map[string][]int64) []string {
	keys := make([]string, 0, len(outcomes))
	for k := range outcomes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sameKeys(t *testing.T, label string, a, b []string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d outcomes\n  a=%v\n  b=%v", label, len(a), len(b), a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: outcome sets differ\n  a=%v\n  b=%v", label, a, b)
		}
	}
}

// crossCheck explores p's threads under mode with the legacy enumerator,
// the reduced engine, and the unreduced engine, and demands identical
// final-state sets from all three.
func crossCheck(t *testing.T, p *ir.Program, threads []string, mode tso.Mode, workers int) (por, naive *StateSet) {
	t.Helper()
	legacy, err := tso.Explore(p, threads, tso.ExploreConfig{Mode: mode})
	if err != nil {
		t.Fatal(err)
	}
	if legacy.Truncated {
		t.Fatal("legacy exploration truncated")
	}
	por, err = Explore(p, threads, Config{Mode: mode, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	naive, err = Explore(p, threads, Config{Mode: mode, Workers: workers, NoPOR: true})
	if err != nil {
		t.Fatal(err)
	}
	if por.Truncated || naive.Truncated {
		t.Fatal("mc exploration truncated")
	}
	want := keySet(legacy.Outcomes)
	sameKeys(t, fmt.Sprintf("%s/%s POR vs legacy", p.Name, mode), keySet(por.Outcomes), want)
	sameKeys(t, fmt.Sprintf("%s/%s NoPOR vs legacy", p.Name, mode), keySet(naive.Outcomes), want)
	return por, naive
}

func TestLitmusAgreesWithLegacyExplorer(t *testing.T) {
	progs := map[string]*ir.Program{"sb": sb(false), "sb+f": sb(true), "mp": mp(), "lb": lb()}
	for name, p := range progs {
		for _, mode := range []tso.Mode{tso.TSO, tso.SC} {
			t.Run(fmt.Sprintf("%s/%s", name, mode), func(t *testing.T) {
				crossCheck(t, p, []string{"t0", "t1"}, mode, 0)
			})
		}
	}
}

func mp() *ir.Program {
	pb := ir.NewProgram("mp")
	data := pb.Global("data", 1)
	flag := pb.Global("flag", 1)
	of := pb.Global("of", 1)
	od := pb.Global("od", 1)
	t0 := pb.Func("t0", 0)
	t0.Store(data, t0.Const(1))
	t0.Store(flag, t0.Const(1))
	t0.RetVoid()
	t1 := pb.Func("t1", 0)
	t1.Store(of, t1.Load(flag))
	t1.Store(od, t1.Load(data))
	t1.RetVoid()
	return pb.MustBuild()
}

func lb() *ir.Program {
	pb := ir.NewProgram("lb")
	x := pb.Global("x", 1)
	y := pb.Global("y", 1)
	o0 := pb.Global("o0", 1)
	o1 := pb.Global("o1", 1)
	t0 := pb.Func("t0", 0)
	t0.Store(o0, t0.Load(x))
	t0.Store(y, t0.Const(1))
	t0.RetVoid()
	t1 := pb.Func("t1", 0)
	t1.Store(o1, t1.Load(y))
	t1.Store(x, t1.Const(1))
	t1.RetVoid()
	return pb.MustBuild()
}

// TestPORVisitsStrictlyFewerStates is the reduction acceptance check: on
// SB, MP and LB the reduced engine must beat both naive enumerations.
func TestPORVisitsStrictlyFewerStates(t *testing.T) {
	progs := map[string]*ir.Program{"sb": sb(false), "mp": mp(), "lb": lb()}
	for name, p := range progs {
		legacy, err := tso.Explore(p, []string{"t0", "t1"}, tso.ExploreConfig{Mode: tso.TSO})
		if err != nil {
			t.Fatal(err)
		}
		por, naive := crossCheck(t, p, []string{"t0", "t1"}, tso.TSO, 1)
		if por.Visited >= naive.Visited {
			t.Errorf("%s: POR visited %d >= naive %d", name, por.Visited, naive.Visited)
		}
		if por.Visited >= int64(legacy.Visited) {
			t.Errorf("%s: POR visited %d >= legacy %d", name, por.Visited, legacy.Visited)
		}
		t.Logf("%s: POR %d, NoPOR %d, legacy %d states", name, por.Visited, naive.Visited, legacy.Visited)
	}
}

// randomPrograms generates small flat two-thread programs over a few
// shared globals: stores, observed loads, fences and CAS in random order.
// Both the POR differential and the fingerprint-vs-exact differential fuzz
// with it (different seeds).
func randomPrograms(seed int64, trials int) map[string]*ir.Program {
	rng := rand.New(rand.NewSource(seed))
	shared := []string{"x", "y", "z"}
	out := make(map[string]*ir.Program, trials)
	for trial := 0; trial < trials; trial++ {
		name := fmt.Sprintf("rand%d", trial)
		pb := ir.NewProgram(name)
		var gs []*ir.Global
		for _, n := range shared {
			gs = append(gs, pb.Global(n, 1))
		}
		obs := 0
		for ti := 0; ti < 2; ti++ {
			fb := pb.Func(fmt.Sprintf("t%d", ti), 0)
			nops := 2 + rng.Intn(3)
			for k := 0; k < nops; k++ {
				g := gs[rng.Intn(len(gs))]
				switch rng.Intn(4) {
				case 0:
					fb.Store(g, fb.Const(int64(1+rng.Intn(2))))
				case 1:
					o := pb.Global(fmt.Sprintf("o%d", obs), 1)
					obs++
					fb.Store(o, fb.Load(g))
				case 2:
					fb.Fence(ir.FenceFull)
				case 3:
					fb.CAS(fb.AddrOf(g), fb.Const(0), fb.Const(int64(1+rng.Intn(2))))
				}
			}
			fb.RetVoid()
		}
		out[name] = pb.MustBuild()
	}
	return out
}

// TestRandomProgramsDifferential fuzzes small flat programs and demands
// that the reduced, unreduced and legacy engines agree on the final-state
// set under both memory models — the soundness check for the POR rules.
func TestRandomProgramsDifferential(t *testing.T) {
	for _, p := range randomPrograms(20260728, 40) {
		for _, mode := range []tso.Mode{tso.TSO, tso.SC} {
			crossCheck(t, p, []string{"t0", "t1"}, mode, 2)
		}
	}
}

// TestParallelWorkersAgree runs the same exploration at 1 worker and at
// GOMAXPROCS workers and demands identical results.
func TestParallelWorkersAgree(t *testing.T) {
	p := medium3()
	seq, err := Explore(p, []string{"t0", "t1", "t2"}, Config{Mode: tso.TSO, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	par, err := Explore(p, []string{"t0", "t1", "t2"}, Config{Mode: tso.TSO, Workers: runtime.GOMAXPROCS(0)})
	if err != nil {
		t.Fatal(err)
	}
	sameKeys(t, "1 worker vs GOMAXPROCS", keySet(seq.Outcomes), keySet(par.Outcomes))
	if len(seq.Outcomes) == 0 {
		t.Fatal("no outcomes")
	}
}

// medium3 is a three-thread store/load ring with a decent state space.
func medium3() *ir.Program {
	pb := ir.NewProgram("ring3")
	var xs, os []*ir.Global
	for i := 0; i < 3; i++ {
		xs = append(xs, pb.Global(fmt.Sprintf("x%d", i), 1))
	}
	for i := 0; i < 3; i++ {
		os = append(os, pb.Global(fmt.Sprintf("o%d", i), 1))
	}
	for i := 0; i < 3; i++ {
		fb := pb.Func(fmt.Sprintf("t%d", i), 0)
		fb.Store(xs[i], fb.Const(1))
		fb.Store(os[i], fb.Load(xs[(i+1)%3]))
		fb.Store(xs[i], fb.Const(2))
		fb.RetVoid()
	}
	return pb.MustBuild()
}

// TestWholeProgramSpawnJoin explores a full program (main spawns workers,
// joins them, asserts) — beyond what the legacy explorer can execute.
func TestWholeProgramSpawnJoin(t *testing.T) {
	build := func(fenced bool) *ir.Program {
		pb := ir.NewProgram("whole-sb")
		x := pb.Global("x", 1)
		y := pb.Global("y", 1)
		o0 := pb.Global("o0", 1)
		o1 := pb.Global("o1", 1)
		t0 := pb.Func("t0", 0)
		t0.Store(x, t0.Const(1))
		if fenced {
			t0.Fence(ir.FenceFull)
		}
		t0.Store(o0, t0.Load(y))
		t0.RetVoid()
		t1 := pb.Func("t1", 0)
		t1.Store(y, t1.Const(1))
		if fenced {
			t1.Fence(ir.FenceFull)
		}
		t1.Store(o1, t1.Load(x))
		t1.RetVoid()
		m := pb.Func("main", 0)
		a := m.Spawn("t0")
		b := m.Spawn("t1")
		m.Join(a)
		m.Join(b)
		// DRF-ility check: after joining, at least one thread saw the
		// other's store (fails only on the non-SC outcome).
		sum := m.Add(m.Load(o0), m.Load(o1))
		m.Assert(m.Ge(sum, m.Const(1)), "both threads read 0")
		m.RetVoid()
		pb.SetMain("main")
		return pb.MustBuild()
	}

	unfenced, err := Explore(build(false), nil, Config{Mode: tso.TSO})
	if err != nil {
		t.Fatal(err)
	}
	foundAssert := false
	for k := range unfenced.Outcomes {
		if len(k) > 7 && k[len(k)-7:] == "!assert" {
			foundAssert = true
		}
	}
	if !foundAssert {
		t.Fatalf("unfenced whole-program SB never tripped its assert under TSO; outcomes: %v", unfenced.Keys())
	}

	fenced, err := Explore(build(true), nil, Config{Mode: tso.TSO})
	if err != nil {
		t.Fatal(err)
	}
	for k := range fenced.Outcomes {
		if len(k) > 7 && k[len(k)-7:] == "!assert" {
			t.Fatalf("fenced whole-program SB tripped its assert under TSO: %s", k)
		}
	}
}

// TestCertifySB is the certification core: the fenced instrumentation of SB
// is SC-equivalent; with a fence deliberately removed certification must
// fail and reconstruct a counterexample schedule.
func TestCertifySB(t *testing.T) {
	orig := sb(false)
	rep, err := certify(orig, sb(true), []string{"t0", "t1"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Equivalent {
		t.Fatalf("fenced SB not certified: %s", rep)
	}
	if len(rep.Missing) != 0 || len(rep.Violations) != 0 {
		t.Fatalf("clean report expected, got %s", rep)
	}

	// Fence removed: the store-buffering outcome must be found and carry a
	// schedule ending in the non-SC final state.
	rep, err = certify(orig, sb(false), []string{"t0", "t1"}, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Equivalent {
		t.Fatal("unfenced SB wrongly certified SC-equivalent")
	}
	if len(rep.Violations) == 0 {
		t.Fatal("no violation recorded")
	}
	v := rep.Violations[0]
	if v.Schedule == nil {
		t.Fatal("violation carries no counterexample schedule")
	}
	if rep.Counterexample() == "" {
		t.Fatal("empty counterexample rendering")
	}
	t.Logf("counterexample:\n%s", rep.Counterexample())
}

// TestCertifyWholeProgram certifies the spawn/join SB program end to end.
func TestCertifyWholeProgram(t *testing.T) {
	pb := func(fenced bool) *ir.Program {
		p := ir.NewProgram("wp")
		x := p.Global("x", 1)
		y := p.Global("y", 1)
		o0 := p.Global("o0", 1)
		o1 := p.Global("o1", 1)
		t0 := p.Func("t0", 0)
		t0.Store(x, t0.Const(1))
		if fenced {
			t0.Fence(ir.FenceFull)
		}
		t0.Store(o0, t0.Load(y))
		t0.RetVoid()
		t1 := p.Func("t1", 0)
		t1.Store(y, t1.Const(1))
		if fenced {
			t1.Fence(ir.FenceFull)
		}
		t1.Store(o1, t1.Load(x))
		t1.RetVoid()
		m := p.Func("main", 0)
		a := m.Spawn("t0")
		b := m.Spawn("t1")
		m.Join(a)
		m.Join(b)
		m.RetVoid()
		p.SetMain("main")
		return p.MustBuild()
	}
	rep, err := certify(pb(false), pb(true), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Equivalent {
		t.Fatalf("fenced whole-program SB not certified: %s", rep)
	}
	rep, err = certify(pb(false), pb(false), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Equivalent {
		t.Fatal("unfenced whole-program SB wrongly certified")
	}
}

func TestTruncationIsAnExplicitError(t *testing.T) {
	p := sb(false)
	res, err := Explore(p, []string{"t0", "t1"}, Config{Mode: tso.TSO, MaxStates: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Truncated {
		t.Fatal("tiny MaxStates did not truncate")
	}
	_, err = certify(p, sb(true), []string{"t0", "t1"}, Config{MaxStates: 3})
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("certify on a truncated exploration returned %v, want ErrTruncated", err)
	}
}

// TestMemoryCapBoundsTheArena pins what Config.MemoryCap does: an Alloca
// that would grow a state's memory past the cap fails the exploration
// with "arena exhausted", and the same program explores when uncapped.
func TestMemoryCapBoundsTheArena(t *testing.T) {
	pb := ir.NewProgram("big-alloca")
	o := pb.Global("o", 1)
	t0 := pb.Func("t0", 0)
	slot := t0.Alloca(64)
	t0.StorePtr(slot, t0.Const(7))
	t0.Store(o, t0.LoadPtr(slot))
	t0.RetVoid()
	p := pb.MustBuild()

	for _, mode := range []tso.Mode{tso.TSO, tso.SC} {
		_, err := Explore(p, []string{"t0"}, Config{Mode: mode, MemoryCap: 32})
		if err == nil || !strings.Contains(err.Error(), "arena exhausted") {
			t.Fatalf("%s: 64-word Alloca under a 32-word cap: err = %v, want arena exhausted", mode, err)
		}
		res, err := Explore(p, []string{"t0"}, Config{Mode: mode, MemoryCap: -1})
		if err != nil {
			t.Fatalf("%s: uncapped: %v", mode, err)
		}
		if !res.Has(map[string]int64{"o": 7}, p) || len(res.Outcomes) != 1 {
			t.Fatalf("%s: uncapped outcomes %v, want only o=7", mode, res.Keys())
		}
	}
}

func TestThreadLimit(t *testing.T) {
	pb := ir.NewProgram("many")
	names := make([]string, 0, MaxThreads+1)
	for i := 0; i <= MaxThreads; i++ {
		fb := pb.Func(fmt.Sprintf("t%d", i), 0)
		fb.RetVoid()
		names = append(names, fmt.Sprintf("t%d", i))
	}
	if _, err := Explore(pb.MustBuild(), names, Config{}); err == nil {
		t.Fatal("17 thread functions accepted")
	}

	// A main that spawns MaxThreads workers reaches the limit by Spawn.
	pb = ir.NewProgram("spawns")
	w := pb.Func("w", 0)
	w.RetVoid()
	main := pb.Func("main", 0)
	for i := 0; i < MaxThreads; i++ {
		main.Spawn("w")
	}
	main.RetVoid()
	pb.SetMain("main")
	if _, err := Explore(pb.MustBuild(), nil, Config{}); err == nil || !strings.Contains(err.Error(), "thread limit") {
		t.Fatalf("spawning a 17th thread: err = %v, want the thread limit", err)
	}
}

// TestRMWAndPointerOps exercises CAS/FetchAdd/pointer access paths against
// the legacy explorer.
func TestRMWAndPointerOps(t *testing.T) {
	pb := ir.NewProgram("rmw")
	c := pb.Global("c", 1)
	o0 := pb.Global("o0", 1)
	o1 := pb.Global("o1", 1)
	t0 := pb.Func("t0", 0)
	t0.Store(o0, t0.FetchAdd(t0.AddrOf(c), t0.Const(1)))
	t0.RetVoid()
	t1 := pb.Func("t1", 0)
	t1.Store(o1, t1.FetchAdd(t1.AddrOf(c), t1.Const(1)))
	t1.RetVoid()
	p := pb.MustBuild()
	for _, mode := range []tso.Mode{tso.TSO, tso.SC} {
		por, _ := crossCheck(t, p, []string{"t0", "t1"}, mode, 2)
		// The counter always ends at 2 and the two observations are {0,1}.
		if !por.Has(map[string]int64{"c": 2}, p) {
			t.Fatalf("%s: counter did not reach 2: %v", mode, por.Keys())
		}
	}
}

// storeThenRMW buffers a store to x and then performs an RMW on y (a
// FetchAdd, or a CAS that succeeds on y's initial value); another thread
// reads y, then x. The RMW drains the buffer first, so a reader that sees
// y updated must see x = 1: the outcome o1=1, o2=0 is forbidden under TSO.
func storeThenRMW(cas bool) *ir.Program {
	name := "store+faa"
	if cas {
		name = "store+cas"
	}
	pb := ir.NewProgram(name)
	x := pb.Global("x", 1)
	y := pb.Global("y", 1)
	o1 := pb.Global("o1", 1)
	o2 := pb.Global("o2", 1)
	t0 := pb.Func("t0", 0)
	t0.Store(x, t0.Const(1))
	if cas {
		t0.CAS(t0.AddrOf(y), t0.Const(0), t0.Const(1))
	} else {
		t0.FetchAdd(t0.AddrOf(y), t0.Const(1))
	}
	t0.RetVoid()
	t1 := pb.Func("t1", 0)
	t1.Store(o1, t1.Load(y))
	t1.Store(o2, t1.Load(x))
	t1.RetVoid()
	return pb.MustBuild()
}

// twoStoresThenLoad buffers two stores to x and loads x back, which must
// forward the newer value, then publishes it to o0 for another thread to
// copy into o1: o0 is 2 in every final state.
func twoStoresThenLoad() *ir.Program {
	pb := ir.NewProgram("store+store+load")
	x := pb.Global("x", 1)
	o0 := pb.Global("o0", 1)
	o1 := pb.Global("o1", 1)
	t0 := pb.Func("t0", 0)
	t0.Store(x, t0.Const(1))
	t0.Store(x, t0.Const(2))
	t0.Store(o0, t0.Load(x))
	t0.RetVoid()
	t1 := pb.Func("t1", 0)
	t1.Store(o1, t1.Load(o0))
	t1.RetVoid()
	return pb.MustBuild()
}

// TestBufferedStepsAgreeWithLegacyExplorer cross-checks the engine's step
// against tso.Explore, which interprets flat threads on its own, on the
// two buffer interactions the litmus corpus does not reach: an RMW after a
// buffered store (the RMW must drain it) and a load after two buffered
// stores to one address (it must forward the newest).
func TestBufferedStepsAgreeWithLegacyExplorer(t *testing.T) {
	progs := []*ir.Program{storeThenRMW(false), storeThenRMW(true), twoStoresThenLoad()}
	for _, p := range progs {
		for _, mode := range []tso.Mode{tso.TSO, tso.SC} {
			for _, workers := range []int{1, runtime.GOMAXPROCS(0)} {
				t.Run(fmt.Sprintf("%s/%s/w%d", p.Name, mode, workers), func(t *testing.T) {
					por, _ := crossCheck(t, p, []string{"t0", "t1"}, mode, workers)
					if p.Name == "store+store+load" {
						if por.Has(map[string]int64{"o0": 1}, p) {
							t.Errorf("the load forwarded the older store: %v", por.Keys())
						}
					} else if por.Has(map[string]int64{"o1": 1, "o2": 0}, p) {
						t.Errorf("a reader saw the RMW but not the store before it: %v", por.Keys())
					}
				})
			}
		}
	}
}
