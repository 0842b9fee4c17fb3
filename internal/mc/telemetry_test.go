package mc

import (
	"context"
	"sync"
	"testing"
	"time"

	"fenceplace/internal/tso"
)

// TestExploreMetricsMatchResult checks the registry counters against the
// exploration's own figures: the states_visited delta must equal
// res.Visited exactly (the acceptance contract of the -metrics dump), the
// run counters must advance by one per exploration, and the structural
// counters must be self-consistent.
func TestExploreMetricsMatchResult(t *testing.T) {
	p := medium3()
	for _, mode := range []tso.Mode{tso.TSO, tso.SC} {
		t.Run(mode.String(), func(t *testing.T) {
			states0 := mStates.Value()
			runs0 := mExploreRuns.Value()
			scRuns0 := mSCExploreRuns.Value()
			trans0 := mTransitions.Value()
			probes0 := mSeenProbes.Value()
			seen0 := mSeenStates.Value()

			res, err := Explore(p, []string{"t0", "t1", "t2"}, Config{Mode: mode, Workers: 2})
			if err != nil {
				t.Fatal(err)
			}

			if d := mStates.Value() - states0; d != res.Visited {
				t.Errorf("mc.states_visited advanced by %d, exploration reports %d", d, res.Visited)
			}
			if d := mExploreRuns.Value() - runs0; d != 1 {
				t.Errorf("mc.explore_runs advanced by %d, want 1", d)
			}
			wantSC := int64(0)
			if mode == tso.SC {
				wantSC = 1
			}
			if d := mSCExploreRuns.Value() - scRuns0; d != wantSC {
				t.Errorf("mc.sc_explore_runs advanced by %d, want %d", d, wantSC)
			}
			// Every visited state beyond the root arrived by executing a
			// transition, and every executed transition was probed against
			// the seen set.
			trans := mTransitions.Value() - trans0
			if trans < res.Visited-1 {
				t.Errorf("mc.transitions_executed %d < visited-1 (%d)", trans, res.Visited-1)
			}
			if probes := mSeenProbes.Value() - probes0; probes != trans {
				t.Errorf("mc.seen_probes %d != transitions %d (each child is probed exactly once)", probes, trans)
			}
			seen := mSeenStates.Value() - seen0
			if seen <= 0 || seen > res.Visited {
				t.Errorf("mc.seen_states delta %d out of range (visited %d)", seen, res.Visited)
			}
		})
	}
}

// TestProgressHeartbeat streams progress from an exploration at a tiny
// interval and checks the event protocol: sequential delivery per
// exploration, monotone visited counts, and a Final event whose totals
// match the returned result exactly.
func TestProgressHeartbeat(t *testing.T) {
	var mu sync.Mutex
	var events []Progress
	ctx := WithProgress(context.Background(), time.Microsecond, func(p Progress) {
		mu.Lock()
		events = append(events, p)
		mu.Unlock()
	})
	p := medium3()
	res, err := ExploreCtx(ctx, p, []string{"t0", "t1", "t2"}, Config{Mode: tso.TSO, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(events) == 0 {
		t.Fatal("no progress events delivered")
	}
	last := events[len(events)-1]
	if !last.Final {
		t.Fatalf("last event is not Final: %+v", last)
	}
	if last.Visited != res.Visited {
		t.Errorf("final event reports %d states, exploration returned %d", last.Visited, res.Visited)
	}
	if last.Program != p.Name || last.Mode != tso.TSO {
		t.Errorf("final event misattributed: %+v", last)
	}
	if last.Seen <= 0 || last.Elapsed <= 0 {
		t.Errorf("final event missing figures: %+v", last)
	}
	prev := int64(-1)
	for i, ev := range events {
		if ev.Final && i != len(events)-1 {
			t.Errorf("Final event at %d of %d", i, len(events))
		}
		if ev.Visited < prev {
			t.Errorf("visited counts not monotone: %d after %d", ev.Visited, prev)
		}
		prev = ev.Visited
	}
}

// TestProgressAbsentIsFree checks explorations without a sink see no
// callback machinery: a plain context must not deliver events (guarded by
// the allocation regression in seen_test.go staying green).
func TestProgressAbsentIsFree(t *testing.T) {
	if _, ok := progressFrom(context.Background()); ok {
		t.Fatal("progressFrom found a sink on a bare context")
	}
	if ctx := WithProgress(context.Background(), time.Second, nil); ctx != context.Background() {
		t.Fatal("WithProgress(nil fn) must return the context unchanged")
	}
}
