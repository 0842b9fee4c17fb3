package mc_test

// Tests of the fingerprint the engine carries through each transition and
// of the det-step classifier, over the cert-kernels builds (which need
// internal/passes), the litmus suite and random programs.

import (
	"fmt"
	"math/rand"
	"testing"

	"fenceplace/internal/ir"
	"fenceplace/internal/litmus"
	"fenceplace/internal/mc"
	"fenceplace/internal/passes"
	"fenceplace/internal/progs"
	"fenceplace/internal/tso"
)

// walkTarget is one program the fingerprint and det-step tests run on.
type walkTarget struct {
	name      string
	p         *ir.Program
	threads   []string
	bufferCap int
}

// certKernelBuilds returns every cert-kernels program at CertParams(0, 0)
// in its unfenced, Control and Manual builds.
func certKernelBuilds() []walkTarget {
	var out []walkTarget
	for _, m := range progs.ByKind(progs.SyncKernel) {
		pp := m.CertParams(0, 0)
		ctl := passes.NewSession(m.Build(pp)).Instrumented(passes.Control)
		unfenced := m.Build(pp)
		pp.Manual = true
		out = append(out,
			walkTarget{name: m.Name + "/unfenced", p: unfenced},
			walkTarget{name: m.Name + "/Control", p: ctl},
			walkTarget{name: m.Name + "/Manual", p: m.Build(pp)})
	}
	return out
}

// TestIncrementalFingerprintMatchesRecompute walks seeded random paths
// through every cert-kernels build, the litmus suite and random whole
// programs that spawn, allocate, run CAS and FetchAdd, overflow a 2-entry
// store buffer, fence and exit with stores buffered, under SC and TSO.
// After every transition, and the det steps normalize merges after it,
// the fingerprint the state carries must equal the one computed from
// scratch: a delta the engine misses shows here as a mismatch, where in an
// exploration it would merge or split states silently.
func TestIncrementalFingerprintMatchesRecompute(t *testing.T) {
	targets := certKernelBuilds()
	for _, lt := range litmus.All() {
		targets = append(targets, walkTarget{name: "litmus/" + lt.Name, p: lt.Prog, threads: lt.Threads})
	}
	for name, p := range randomSpawnPrograms(20261019, 20) {
		targets = append(targets, walkTarget{name: name, p: p, bufferCap: 2})
	}
	fired := 0
	for i, tg := range targets {
		for _, mode := range []tso.Mode{tso.SC, tso.TSO} {
			cfg := mc.Config{Mode: mode, BufferCap: tg.bufferCap}
			n, err := mc.FingerprintWalk(tg.p, tg.threads, cfg, int64(31+i), 16, 200)
			if err != nil {
				t.Fatalf("%s/%s: %v", tg.name, mode, err)
			}
			fired += n
		}
	}
	t.Logf("%d transitions checked over %d programs", fired, len(targets))
}

// TestDetStepMatchesFootprint holds the det-step classifier, which decides
// from the instruction kind, the retreat table and the thread's own
// buffer, to the footprint rule it replaced, on every state reached
// exploring the cert-kernels builds and random branching programs under
// SC and TSO: det means stepFP reports the step local, loads and
// retreating branches excluded.
func TestDetStepMatchesFootprint(t *testing.T) {
	targets := certKernelBuilds()
	for name, p := range randomBranchPrograms(20261020, 20) {
		targets = append(targets, walkTarget{name: name, p: p, threads: []string{"t0", "t1"}})
	}
	for name, p := range randomSpawnPrograms(20261021, 10) {
		targets = append(targets, walkTarget{name: name, p: p, bufferCap: 2})
	}
	checked := 0
	for _, tg := range targets {
		for _, mode := range []tso.Mode{tso.SC, tso.TSO} {
			cfg := mc.Config{Mode: mode, BufferCap: tg.bufferCap}
			n, err := mc.DetStepAgreement(tg.p, tg.threads, cfg, 1<<20)
			if err != nil {
				t.Fatalf("%s/%s: %v", tg.name, mode, err)
			}
			checked += n
		}
	}
	t.Logf("%d states checked over %d programs", checked, len(targets))
}

// randomSpawnPrograms generates whole programs whose main buffers a store
// before each of two Spawns, so a Spawn drains a nonempty buffer, and
// joins one worker or none. Each worker mixes runs of stores (which
// overflow a 2-entry buffer), loads, CAS and FetchAdd on globals or on an
// Alloca'd or Malloc'd slot, and full fences, and ends on a store, so its
// exit publishes a buffered store.
func randomSpawnPrograms(seed int64, trials int) map[string]*ir.Program {
	rng := rand.New(rand.NewSource(seed))
	out := make(map[string]*ir.Program, trials)
	for trial := 0; trial < trials; trial++ {
		name := fmt.Sprintf("spawn%d", trial)
		pb := ir.NewProgram(name)
		gs := []*ir.Global{pb.Global("x", 1), pb.Global("y", 1), pb.Global("z", 1)}
		pick := func() *ir.Global { return gs[rng.Intn(len(gs))] }
		for wi := 0; wi < 2; wi++ {
			fb := pb.Func(fmt.Sprintf("w%d", wi), 1)
			arg := fb.Param(0)
			for k, n := 0, 2+rng.Intn(3); k < n; k++ {
				switch rng.Intn(6) {
				case 0:
					for j, m := 0, 1+rng.Intn(3); j < m; j++ {
						fb.Store(pick(), fb.Const(int64(1+rng.Intn(3))))
					}
				case 1:
					fb.Store(pick(), fb.Add(fb.Load(pick()), arg))
				case 2:
					fb.CAS(fb.AddrOf(pick()), fb.Const(0), arg)
				case 3:
					fb.FetchAdd(fb.AddrOf(pick()), fb.Const(1))
				case 4:
					fb.Fence(ir.FenceFull)
				case 5:
					slot := fb.Alloca(1)
					if rng.Intn(2) == 0 {
						slot = fb.Malloc(2)
					}
					fb.StorePtr(slot, arg)
					fb.FetchAdd(slot, fb.Const(1))
					fb.Store(pick(), fb.LoadPtr(slot))
				}
			}
			fb.Store(pick(), arg)
			fb.RetVoid()
		}
		main := pb.Func("main", 0)
		main.Store(pick(), main.Const(5))
		w0 := main.Spawn("w0", main.Const(1))
		main.Store(pick(), main.Const(6))
		main.Spawn("w1", main.Const(2))
		if rng.Intn(2) == 0 {
			main.Join(w0)
		}
		main.Store(pick(), main.Const(7))
		main.RetVoid()
		pb.SetMain("main")
		out[name] = pb.MustBuild()
	}
	return out
}
