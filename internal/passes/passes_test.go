package passes

import (
	"context"
	"strings"
	"sync"
	"testing"

	"fenceplace/internal/acquire"
	"fenceplace/internal/alias"
	"fenceplace/internal/escape"
	"fenceplace/internal/fence"
	"fenceplace/internal/ir"
	"fenceplace/internal/mc"
	"fenceplace/internal/orders"
	"fenceplace/internal/progs"
)

// TestMemoization: every pass artifact is computed once and the same
// pointer is served on every later call.
func TestMemoization(t *testing.T) {
	s := NewSession(progs.ByName("msqueue").Default())
	if s.Alias() != s.Alias() {
		t.Error("alias recomputed")
	}
	if s.Escape() != s.Escape() {
		t.Error("escape recomputed")
	}
	if s.Generated() != s.Generated() {
		t.Error("ordering generation recomputed")
	}
	for _, v := range []acquire.Variant{acquire.Control, acquire.AddressControl} {
		if s.Detect(v) != s.Detect(v) {
			t.Errorf("acquire detection %s recomputed", v)
		}
	}
	for _, st := range Strategies {
		if s.Kept(st) != s.Kept(st) {
			t.Errorf("%s: pruned set recomputed", st)
		}
		if s.Plan(st) != s.Plan(st) {
			t.Errorf("%s: plan recomputed", st)
		}
		if s.Instrumented(st) != s.Instrumented(st) {
			t.Errorf("%s: instrumented clone recomputed", st)
		}
	}
	if s.Kept(PensieveOnly) != s.Generated() {
		t.Error("Pensieve must keep the generated set itself")
	}
	f := s.Program().Funcs[0]
	if s.CFG(f) != s.CFG(f) || s.Index(f) != s.Index(f) {
		t.Error("per-function prep recomputed")
	}
}

// TestSessionMatchesDirectPipeline: the session's artifacts agree with the
// pre-session sequential pipeline on representative corpus programs.
func TestSessionMatchesDirectPipeline(t *testing.T) {
	for _, name := range []string{"peterson", "msqueue", "radix"} {
		p := progs.ByName(name).Default()
		s := NewSession(p)

		al := alias.Analyze(p)
		esc := escape.Analyze(p, al)
		full := orders.Generate(p, esc)

		if got, want := s.Escape().CountReads(), esc.CountReads(); got != want {
			t.Errorf("%s: escaping reads %d, want %d", name, got, want)
		}
		gen := s.Generated()
		if gen.Total() != full.Total() {
			t.Errorf("%s: %d orderings generated, want %d", name, gen.Total(), full.Total())
		}
		for _, ty := range orders.Types {
			if gen.Count(ty) != full.Count(ty) {
				t.Errorf("%s: %s count %d, want %d", name, ty, gen.Count(ty), full.Count(ty))
			}
		}
		for _, v := range []acquire.Variant{acquire.Control, acquire.AddressControl} {
			want := acquire.Detect(p, al, esc, v).Count()
			if got := s.Detect(v).Count(); got != want {
				t.Errorf("%s/%s: %d acquires, want %d", name, v, got, want)
			}
		}
		for _, st := range Strategies {
			kept := s.Kept(st)
			var wantKept *orders.Set
			switch st {
			case PensieveOnly:
				wantKept = full
			case Control:
				wantKept = full.Prune(acquire.Detect(p, al, esc, acquire.Control))
			case AddressControl:
				wantKept = full.Prune(acquire.Detect(p, al, esc, acquire.AddressControl))
			}
			if kept.Total() != wantKept.Total() {
				t.Errorf("%s/%s: kept %d orderings, want %d", name, st, kept.Total(), wantKept.Total())
			}
			var wantPlan *fence.Plan
			if st == PensieveOnly {
				wantPlan = fence.Minimize(wantKept, fence.Options{
					EntryFence: func(fn *ir.Fn) bool { return len(esc.EscapingReads(fn)) > 0 },
				})
			} else {
				v := acquire.Control
				if st == AddressControl {
					v = acquire.AddressControl
				}
				wantPlan = fence.Minimize(wantKept, fence.Options{
					EntryFence: acquire.Detect(p, al, esc, v).FnHasSync,
				})
			}
			plan := s.Plan(st)
			if plan.FullFences() != wantPlan.FullFences() ||
				plan.CompilerBarriers() != wantPlan.CompilerBarriers() {
				t.Errorf("%s/%s: plan %d+%d fences, want %d+%d", name, st,
					plan.FullFences(), plan.CompilerBarriers(),
					wantPlan.FullFences(), wantPlan.CompilerBarriers())
			}
		}
	}
}

// TestConcurrentSessionUse hammers one session from many goroutines; run
// under -race this is the session's thread-safety obligation.
func TestConcurrentSessionUse(t *testing.T) {
	for _, workers := range []int{1, 4} {
		s := NewSession(progs.ByName("msqueue").Default(), Workers(workers))
		var wg sync.WaitGroup
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				st := Strategies[g%len(Strategies)]
				plan := s.Plan(st)
				kept := s.Kept(st)
				if plan.FullFences() == 0 {
					t.Errorf("%s: no fences", st)
				}
				if kept.Total() > s.Generated().Total() {
					t.Errorf("%s: kept more than generated", st)
				}
				_ = s.Signatures()
			}(g)
		}
		wg.Wait()
	}
}

// TestWorkerCountsAgree: the fan-out width must not change any artifact.
func TestWorkerCountsAgree(t *testing.T) {
	m := progs.ByName("chaselev")
	base := NewSession(m.Default())
	for _, w := range []int{1, 2, 8} {
		s := NewSession(m.Default(), Workers(w))
		for _, st := range Strategies {
			if got, want := s.Kept(st).Total(), base.Kept(st).Total(); got != want {
				t.Errorf("workers=%d %s: kept %d, want %d", w, st, got, want)
			}
			if got, want := s.Plan(st).FullFences(), base.Plan(st).FullFences(); got != want {
				t.Errorf("workers=%d %s: %d fences, want %d", w, st, got, want)
			}
		}
	}
}

// TestTimings: each executed pass appears exactly once.
func TestTimings(t *testing.T) {
	s := NewSession(progs.ByName("dekker").Default())
	for _, st := range Strategies {
		s.Plan(st)
	}
	seen := map[string]int{}
	for _, tm := range s.Timings() {
		seen[tm.Pass]++
		if tm.Duration < 0 {
			t.Errorf("pass %s: negative duration", tm.Pass)
		}
	}
	for _, pass := range []string{
		"alias", "escape", "cfg", "slice-index", "orders",
		"acquire/Control", "acquire/Address+Control",
		"prune/Control", "prune/Address+Control",
		"minimize/Pensieve", "minimize/Control", "minimize/Address+Control",
	} {
		if seen[pass] != 1 {
			t.Errorf("pass %s recorded %d times, want 1", pass, seen[pass])
		}
	}
}

// TestPensieveOnlySkipsSlicing: the baseline strategy needs no acquire
// knowledge, so a session that only evaluates Pensieve must never pay for
// slicer indexes or detection.
func TestPensieveOnlySkipsSlicing(t *testing.T) {
	s := NewSession(progs.ByName("msqueue").Default())
	if s.Plan(PensieveOnly).FullFences() == 0 {
		t.Fatal("no fences")
	}
	s.Instrumented(PensieveOnly)
	for _, tm := range s.Timings() {
		if tm.Pass == "slice-index" || strings.HasPrefix(tm.Pass, "acquire/") {
			t.Errorf("Pensieve-only session ran %s", tm.Pass)
		}
	}
}

// TestCertBaselineMemoized: the session serves one certification
// baseline per (entry configuration, normalized exploration config) —
// including under concurrent demand — and distinguishes genuinely
// different configurations.
func TestCertBaselineMemoized(t *testing.T) {
	m := progs.ByName("dekker")
	pp := m.Defaults
	pp.Threads = 2
	pp.Size = 1
	s := NewSession(m.Build(pp))

	const callers = 8
	got := make([]*mc.Baseline, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			b, err := s.CertBaselineAtCtx(context.Background(), nil, mc.Config{}, Cache{})
			if err != nil {
				t.Errorf("caller %d: %v", g, err)
				return
			}
			got[g] = b
		}(g)
	}
	wg.Wait()
	for g := 1; g < callers; g++ {
		if got[g] != got[0] {
			t.Fatalf("caller %d received a different baseline", g)
		}
	}
	// Zero config and explicitly-defaulted config normalize to one key.
	b, err := s.CertBaselineAtCtx(context.Background(), nil, mc.Config{}.Normalize(), Cache{})
	if err != nil {
		t.Fatal(err)
	}
	if b != got[0] {
		t.Error("normalized config missed the memoized baseline")
	}
	// A different budget is a different baseline key.
	b2, err := s.CertBaselineAtCtx(context.Background(), nil, mc.Config{MaxStates: 1 << 20}, Cache{})
	if err != nil {
		t.Fatal(err)
	}
	if b2 == got[0] {
		t.Error("distinct exploration configs shared a baseline")
	}
	// The exploration is recorded as a pass exactly once per key.
	n := 0
	for _, tm := range s.Timings() {
		if tm.Pass == "mc-baseline" {
			n++
		}
	}
	if n != 2 {
		t.Errorf("mc-baseline recorded %d times, want 2 (one per config key)", n)
	}
}

// TestCertifyAgainstSharesExploration: concurrent certifications of
// structurally identical builds (dekker's Control and Address+Control)
// block on one TSO exploration, recorded once, and get equal reports.
func TestCertifyAgainstSharesExploration(t *testing.T) {
	m := progs.ByName("dekker")
	pp := m.Defaults
	pp.Threads = 2
	pp.Size = 1
	s := NewSession(m.Build(pp))
	builds := []*ir.Program{s.Instrumented(Control), s.Instrumented(AddressControl)}

	const callers = 8
	reps := make([]*mc.Report, callers)
	var wg sync.WaitGroup
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			base, err := s.CertBaselineAtCtx(context.Background(), nil, mc.Config{}, Cache{})
			if err == nil {
				reps[g], err = s.CertifyAgainstCtx(context.Background(), base, builds[g%2], mc.Config{}, Cache{})
			}
			if err != nil {
				t.Errorf("caller %d: %v", g, err)
			}
		}(g)
	}
	wg.Wait()
	for g := 1; g < callers; g++ {
		if reps[g] == nil || reps[0] == nil || reps[g].String() != reps[0].String() {
			t.Fatalf("caller %d: report %v, caller 0: %v", g, reps[g], reps[0])
		}
	}
	n := 0
	for _, tm := range s.Timings() {
		if tm.Pass == "mc-tso" {
			n++
		}
	}
	if n != 1 {
		t.Errorf("mc-tso recorded %d times, want 1", n)
	}
}

func TestStrategyNames(t *testing.T) {
	want := map[Strategy]string{
		PensieveOnly: "Pensieve", Control: "Control", AddressControl: "Address+Control",
	}
	for st, s := range want {
		if st.String() != s {
			t.Errorf("strategy %d renders %q, want %q", st, st.String(), s)
		}
	}
	if len(Strategies) != int(numStrategies) {
		t.Error("Strategies list out of sync")
	}
}
