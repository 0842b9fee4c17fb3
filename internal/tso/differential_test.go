package tso_test

// The simulator and the model checker execute the same programs under the
// same memory models. Every final state a simulated run reaches must be one
// the checker enumerates; a run outside the set means the two disagree on
// what some instruction does.

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"fenceplace/internal/ir"
	"fenceplace/internal/litmus"
	"fenceplace/internal/mc"
	"fenceplace/internal/passes"
	"fenceplace/internal/progs"
	"fenceplace/internal/tso"
)

// simWithinChecker explores p under mode with the checker at its default
// buffer cap, then runs the simulator with the Random scheduler and random
// drains at buffer caps 4 and 16, seeds 0–99, and demands that each run's
// final globals (suffixed "!assert" when an assert failed) be an outcome
// key of the exploration. Livelocked and deadlocked runs are skipped.
func simWithinChecker(t *testing.T, label string, p *ir.Program, mode tso.Mode) {
	t.Helper()
	ss, err := mc.ExploreCompleteCtx(context.Background(), p, nil, mc.Config{Mode: mode})
	if err != nil {
		t.Fatalf("%s: checker: %v", label, err)
	}
	for _, bufCap := range []int{4, 16} {
		for seed := int64(0); seed < 100; seed++ {
			out := tso.Run(p, tso.Config{
				Mode: mode, Sched: tso.Random, Policy: tso.DrainRandom, DrainPercent: 5,
				BufferCap: bufCap, Seed: seed, MaxSteps: 100_000,
			})
			if out.Deadlock {
				continue
			}
			if out.Err != nil {
				t.Fatalf("%s: cap %d seed %d: %v", label, bufCap, seed, out.Err)
			}
			var vec []int64
			for _, g := range p.Globals {
				for i := 0; i < g.Size; i++ {
					vec = append(vec, out.GlobalIdx(g.Name, i))
				}
			}
			key := fmt.Sprint(vec)
			if len(out.Failures) > 0 {
				key += "!assert"
			}
			if _, ok := ss.Outcomes[key]; !ok {
				t.Fatalf("%s: cap %d seed %d: simulated final state %s is not among the checker's outcomes %v",
					label, bufCap, seed, key, ss.Keys())
			}
		}
	}
}

// withMain returns a copy of a litmus test's program whose main spawns
// every thread function and then joins them all, so both engines run it
// as a whole program.
func withMain(lt *litmus.Test) (*ir.Program, error) {
	p, _, _ := lt.Prog.Clone()
	p.Main = "main"
	var sb strings.Builder
	fmt.Fprintf(&sb, "\nfunc main params=0 regs=%d {\nentry:\n", len(lt.Threads))
	for i, fn := range lt.Threads {
		fmt.Fprintf(&sb, "  r%d = spawn %s()\n", i, fn)
	}
	for i := range lt.Threads {
		fmt.Fprintf(&sb, "  join r%d\n", i)
	}
	sb.WriteString("  ret\n}\n")
	return ir.Parse(ir.Format(p) + sb.String())
}

// TestSimulatorWithinChecker runs the differential on every Table II
// kernel at CertParams(0, 1), unfenced and under the Pensieve and Control
// placements, and on every litmus test, under SC and TSO.
func TestSimulatorWithinChecker(t *testing.T) {
	modes := []tso.Mode{tso.SC, tso.TSO}
	t.Run("kernels", func(t *testing.T) {
		for _, m := range progs.ByKind(progs.SyncKernel) {
			pp := m.CertParams(0, 1)
			builds := []struct {
				name string
				p    *ir.Program
			}{
				{"unfenced", m.Build(pp)},
				{"Pensieve", passes.NewSession(m.Build(pp)).Instrumented(passes.PensieveOnly)},
				{"Control", passes.NewSession(m.Build(pp)).Instrumented(passes.Control)},
			}
			for _, b := range builds {
				for _, mode := range modes {
					simWithinChecker(t, fmt.Sprintf("%s/%s/%s", m.Name, b.name, mode), b.p, mode)
				}
			}
		}
	})
	t.Run("litmus", func(t *testing.T) {
		for _, lt := range litmus.All() {
			p, err := withMain(lt)
			if err != nil {
				t.Fatalf("%s: %v", lt.Name, err)
			}
			for _, mode := range modes {
				simWithinChecker(t, fmt.Sprintf("%s/%s", lt.Name, mode), p, mode)
			}
		}
	})
}
