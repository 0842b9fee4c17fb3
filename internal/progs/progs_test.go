package progs

import (
	"testing"

	"fenceplace/internal/acquire"
	"fenceplace/internal/alias"
	"fenceplace/internal/escape"
	"fenceplace/internal/tso"
)

func TestRegistryShape(t *testing.T) {
	if got := len(ByKind(SyncKernel)); got != 9 {
		t.Errorf("got %d sync kernels, want 9 (Table II)", got)
	}
	if got := len(ByKind(Splash)); got != 14 {
		t.Errorf("got %d SPLASH-like programs, want 14", got)
	}
	if got := len(ByKind(LockFree)); got != 3 {
		t.Errorf("got %d lock-free programs, want 3 (Table III)", got)
	}
	if got := len(EvalSet()); got != 17 {
		t.Errorf("evaluation set has %d programs, want 17 (Figures 7-10)", got)
	}
	for _, m := range All() {
		if ByName(m.Name) != m {
			t.Errorf("%s: lookup mismatch", m.Name)
		}
		if m.Desc == "" || m.Source == "" {
			t.Errorf("%s: missing description or source", m.Name)
		}
	}
	if ByName("nope") != nil {
		t.Error("unknown name returned a program")
	}
	if len(Names()) != len(All()) {
		t.Error("Names out of sync")
	}
}

func TestAllProgramsBuildAndValidate(t *testing.T) {
	for _, m := range All() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			p := m.Default()
			if err := p.Validate(); err != nil {
				t.Fatalf("invalid: %v", err)
			}
			pm := m.Build(withManual(m.Defaults))
			if err := pm.Validate(); err != nil {
				t.Fatalf("manual build invalid: %v", err)
			}
			full, _ := pm.CountFences(false)
			if full != m.ManualFences {
				t.Errorf("manual build has %d full fences, Meta says %d", full, m.ManualFences)
			}
		})
	}
}

func withManual(p Params) Params {
	p.Manual = true
	return p
}

func TestAllProgramsCorrectUnderSC(t *testing.T) {
	// Under SC no fences are needed: the unfenced (legacy) builds must run
	// clean over several adversarial schedules. This is the corpus's basic
	// correctness gate.
	for _, m := range All() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			p := m.Default()
			for seed := int64(0); seed < 3; seed++ {
				out := tso.Run(p, tso.Config{Mode: tso.SC, Sched: tso.Random, Seed: seed})
				if out.Failed() {
					t.Fatalf("seed %d: failures=%v err=%v deadlock=%v",
						seed, out.Failures, out.Err, out.Deadlock)
				}
			}
		})
	}
}

func TestManualBuildsCorrectUnderTSO(t *testing.T) {
	// The expert-fenced builds are the paper's baseline: they must be
	// correct on TSO (with eventual store visibility, as real hardware
	// provides).
	for _, m := range All() {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			p := m.Build(withManual(m.Defaults))
			for seed := int64(0); seed < 3; seed++ {
				out := tso.Run(p, tso.Config{
					Mode: tso.TSO, Sched: tso.Random,
					Policy: tso.DrainRandom, Seed: seed,
				})
				if out.Failed() {
					t.Fatalf("seed %d: failures=%v err=%v deadlock=%v",
						seed, out.Failures, out.Err, out.Deadlock)
				}
			}
		})
	}
}

func TestRMWSyncedProgramsSafeOnTSOWithoutFences(t *testing.T) {
	// Programs whose synchronization goes through locked RMWs (locks,
	// barriers, CAS protocols) are TSO-safe even unfenced — the paper's
	// observation that only w→r needs MFENCE.
	for _, m := range All() {
		if m.NeedsWRFence {
			continue
		}
		m := m
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			p := m.Default()
			for seed := int64(0); seed < 3; seed++ {
				out := tso.Run(p, tso.Config{
					Mode: tso.TSO, Sched: tso.Random,
					Policy: tso.DrainRandom, Seed: seed,
				})
				if out.Failed() {
					t.Fatalf("seed %d: failures=%v err=%v", seed, out.Failures, out.Err)
				}
			}
		})
	}
}

func TestDekkerFamilyBreaksOnTSOWithoutFences(t *testing.T) {
	// The teeth of the dynamic validation: flag-and-check mutual exclusion
	// must fail under TSO when its w→r fences are missing.
	for _, m := range All() {
		if !m.NeedsWRFence {
			continue
		}
		m := m
		t.Run(m.Name, func(t *testing.T) {
			t.Parallel()
			p := m.Default()
			violated := false
			for seed := int64(0); seed < 12 && !violated; seed++ {
				out := tso.Run(p, tso.Config{
					Mode: tso.TSO, Sched: tso.Random,
					Policy: tso.DrainRandom, DrainPercent: 5, Seed: seed,
					MaxSteps: 3_000_000,
				})
				if len(out.Failures) > 0 || out.Deadlock {
					violated = true
				}
			}
			if !violated {
				t.Errorf("%s never misbehaved on unfenced TSO across 12 seeds", m.Name)
			}
		})
	}
}

func TestTable2Classification(t *testing.T) {
	// Regenerates the paper's Table II: signature breakdown per kernel,
	// and the headline observation — no pure-address acquires anywhere.
	for _, m := range ByKind(SyncKernel) {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			p := m.Default()
			al := alias.Analyze(p)
			esc := escape.Analyze(p, al)
			sig := acquire.SignaturesOf(acquire.Detect(p, al, esc, acquire.Control), acquire.Detect(p, al, esc, acquire.AddressOnly))
			if m.Table2 == nil {
				t.Fatal("kernel missing Table2 expectation")
			}
			if got := sig.HasControl(); got != m.Table2.Ctrl {
				t.Errorf("Ctrl = %v, Table II says %v", got, m.Table2.Ctrl)
			}
			if got := sig.HasAddress(); got != m.Table2.Addr {
				t.Errorf("Addr = %v, Table II says %v", got, m.Table2.Addr)
			}
			if sig.HasPureAddress() != m.Table2.PureAddr {
				t.Errorf("PureAddr = %v, Table II says %v (paper: none exist)",
					sig.HasPureAddress(), m.Table2.PureAddr)
			}
		})
	}
}

// TestCertParams pins the reduced instantiation exhaustive certification
// uses: 2 threads and the default size capped at 2 unless given.
func TestCertParams(t *testing.T) {
	m := ByName("szymanski")
	if m.Defaults.Size <= 2 {
		t.Fatalf("szymanski default size %d no longer exercises the cap", m.Defaults.Size)
	}
	for _, tc := range []struct {
		threads, wantThreads int
		size, wantSize       int64
	}{
		{0, 2, 0, 2},
		{3, 3, 0, 2},
		{-1, 2, 5, 5},
	} {
		p := m.CertParams(tc.threads, tc.size)
		if p.Threads != tc.wantThreads || p.Size != tc.wantSize {
			t.Errorf("CertParams(%d, %d) = threads %d size %d; want %d, %d",
				tc.threads, tc.size, p.Threads, p.Size, tc.wantThreads, tc.wantSize)
		}
	}
}
