package mc_test

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"fenceplace/internal/ir"
	"fenceplace/internal/litmus"
	"fenceplace/internal/mc"
	"fenceplace/internal/passes"
	"fenceplace/internal/progs"
	"fenceplace/internal/tso"
)

// certifyAgainst certifies inst against orig's SC baseline under TSO.
func certifyAgainst(t *testing.T, orig, inst *ir.Program, threadFns []string, cfg mc.Config) *mc.Report {
	t.Helper()
	base, err := mc.NewBaselineCtx(context.Background(), orig, threadFns, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := mc.CertifyAgainstCtx(context.Background(), base, inst, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// replaySchedule executes sched from the initial state of p through
// tso.Machine.Step and State.Drain, checking that every step names the
// instruction it executes, and returns the final globals, whether an
// assert failed on the way, and whether the final state is terminal.
func replaySchedule(p *ir.Program, threadFns []string, sched []mc.Step) (globals []int64, failed, terminal bool, err error) {
	cfg := mc.Config{}.Normalize()
	m := tso.NewMachine(p, tso.TSO, cfg.BufferCap, cfg.MemoryCap)
	s := m.NewState()
	if threadFns == nil {
		threadFns = []string{p.Main}
	}
	for _, name := range threadFns {
		m.StartThread(&s, m.Func(name))
	}
	for i, st := range sched {
		if st.Thread >= len(s.Threads) {
			return nil, false, false, fmt.Errorf("step %d (%s): no thread %d", i, st, st.Thread)
		}
		th := &s.Threads[st.Thread]
		if st.Drain {
			if len(th.Buf) == 0 || !strings.HasSuffix(st.Desc, fmt.Sprintf(" = %d", th.Buf[0].Val)) {
				return nil, false, false, fmt.Errorf("step %d (%s): buffer %v", i, st, th.Buf)
			}
			s.Drain(st.Thread)
			continue
		}
		if th.Done {
			return nil, false, false, fmt.Errorf("step %d (%s): thread has finished", i, st)
		}
		if in := th.Next().String(); in != st.Desc {
			return nil, false, false, fmt.Errorf("step %d (%s): next instruction is %s", i, st, in)
		}
		ev, err := m.Step(&s, st.Thread)
		if err != nil {
			return nil, false, false, fmt.Errorf("step %d (%s): %v", i, st, err)
		}
		failed = failed || ev.Hit && ev.Instr.Kind == ir.Assert
	}
	terminal = true
	for _, th := range s.Threads {
		terminal = terminal && th.Done && len(th.Buf) == 0
	}
	return m.Globals(&s), failed, terminal, nil
}

// checkCounterexamples replays every violation's schedule and demands it
// reach the violation's globals and failed flag; a deadlocked outcome
// must end on a state that has not terminated.
func checkCounterexamples(t *testing.T, label string, p *ir.Program, threadFns []string, rep *mc.Report) {
	t.Helper()
	if rep.Equivalent || len(rep.Violations) == 0 {
		t.Fatalf("%s: no violation to replay: %s", label, rep)
	}
	for _, v := range rep.Violations {
		if v.Schedule == nil {
			t.Errorf("%s: outcome %s carries no schedule", label, v.Key)
			continue
		}
		globals, failed, terminal, err := replaySchedule(p, threadFns, v.Schedule)
		if err != nil {
			t.Errorf("%s: outcome %s: %v", label, v.Key, err)
			continue
		}
		if !slices.Equal(globals, v.Globals) {
			t.Errorf("%s: outcome %s: schedule ends on globals %v", label, v.Key, globals)
		}
		if want := strings.Contains(v.Key, "!assert"); failed != want {
			t.Errorf("%s: outcome %s: schedule's assert failed = %v", label, v.Key, failed)
		}
		if want := !strings.HasSuffix(v.Key, "!deadlock"); terminal != want {
			t.Errorf("%s: outcome %s: schedule ends terminal = %v", label, v.Key, terminal)
		}
	}
}

// TestCounterexamplesReplay replays every reported counterexample schedule
// from the initial state through the step semantics: every Table II
// kernel whose unfenced build fails certification at CertParams(2, 1),
// unfenced SB, and canneal at size 2 under Control, whose 124 violations
// must each carry a schedule. Schedules join the determinism contract:
// the schedule search always runs at one worker, so unfenced dekker's and
// canneal's counterexamples are the same at 1 and 4 workers. Under the
// race detector the canneal case, 50 times slower there, is skipped.
func TestCounterexamplesReplay(t *testing.T) {
	t.Run("kernels", func(t *testing.T) {
		var failing []string
		for _, m := range progs.ByKind(progs.SyncKernel) {
			p := m.Build(m.CertParams(2, 1))
			rep := certifyAgainst(t, p, p, nil, mc.Config{Workers: 1})
			if rep.Equivalent {
				continue
			}
			failing = append(failing, m.Name)
			checkCounterexamples(t, m.Name+"/unfenced", p, nil, rep)
			if m.Name != "dekker" {
				continue
			}
			four := certifyAgainst(t, p, p, nil, mc.Config{Workers: 4})
			if one, four := rep.Counterexample(), four.Counterexample(); one != four {
				t.Errorf("dekker: counterexample differs between 1 and 4 workers:\n%s\nvs\n%s", one, four)
			}
		}
		slices.Sort(failing)
		if want := []string{"cilk5", "dekker", "lamport", "peterson", "szymanski"}; !slices.Equal(failing, want) {
			t.Errorf("unfenced kernels failing certification: %v, want %v", failing, want)
		}
	})
	t.Run("SB", func(t *testing.T) {
		sb := litmus.All()[0]
		if sb.Name != "SB" {
			t.Fatalf("first litmus test is %s, want SB", sb.Name)
		}
		checkCounterexamples(t, "SB", sb.Prog, sb.Threads, certifyAgainst(t, sb.Prog, sb.Prog, sb.Threads, mc.Config{}))
	})
	t.Run("canneal", func(t *testing.T) {
		if raceEnabled {
			t.Skip("two 1.2M-state TSO explorations; the kernels cover the schedule search under the race detector")
		}
		m := progs.ByName("canneal")
		pp := m.CertParams(2, 2)
		ctl := passes.NewSession(m.Build(pp)).Instrumented(passes.Control)
		ctx := context.Background()
		base, err := mc.NewBaselineCtx(ctx, m.Build(pp), nil, mc.Config{})
		if err != nil {
			t.Fatal(err)
		}
		ts, err := mc.ExploreCompleteCtx(ctx, ctl, nil, mc.Config{Mode: tso.TSO})
		if err != nil {
			t.Fatal(err)
		}
		// The schedule search is the only part of Compare the worker count
		// could reach, so one exploration serves both worker counts.
		var reps [2]*mc.Report
		for i, workers := range []int{1, 4} {
			if reps[i], err = mc.Compare(ctx, base, ctl, ts, mc.Config{Workers: workers}); err != nil {
				t.Fatal(err)
			}
		}
		if len(reps[0].Violations) != 124 {
			t.Fatalf("canneal/Control: %d violations, want 124", len(reps[0].Violations))
		}
		checkCounterexamples(t, "canneal/Control", ctl, nil, reps[0])
		if one, four := reps[0].Counterexample(), reps[1].Counterexample(); one != four {
			t.Errorf("canneal/Control: counterexample differs between 1 and 4 workers:\n%s\nvs\n%s", one, four)
		}
	})
}
