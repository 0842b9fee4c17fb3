package litmus

// The baseline codec round-tripped over the whole litmus corpus: every
// test's SC baseline must survive encode → decode bit-exactly (outcome
// set and visit count), and its canonical store key must be stable across
// repeated derivations — the invariants the persistent certification
// store (internal/store) rests on.

import (
	"context"
	"reflect"
	"testing"

	"fenceplace/internal/mc"
)

func TestBaselineCodecRoundTripCorpus(t *testing.T) {
	for _, lt := range All() {
		lt := lt
		t.Run(lt.Name, func(t *testing.T) {
			t.Parallel()
			base, err := mc.NewBaselineCtx(context.Background(), lt.Prog, lt.Threads, mc.Config{})
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			data, err := base.MarshalBinary()
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			got, err := mc.UnmarshalBaseline(lt.Prog, lt.Threads, mc.Config{}, data)
			if err != nil {
				t.Fatalf("unmarshal: %v", err)
			}
			if got.SC.Visited != base.SC.Visited {
				t.Errorf("visited %d after round trip, want %d", got.SC.Visited, base.SC.Visited)
			}
			if !reflect.DeepEqual(got.SC.Outcomes, base.SC.Outcomes) {
				t.Errorf("outcome set changed across the round trip:\ngot  %v\nwant %v",
					got.SC.Keys(), base.SC.Keys())
			}

			// The store key must not depend on search-shaping parameters,
			// or identical corpora explored with different budgets or
			// worker counts would never share entries.
			k1 := mc.BaselineKey(lt.Prog, lt.Threads, mc.Config{})
			k2 := mc.BaselineKey(lt.Prog, lt.Threads, mc.Config{Workers: 2, MaxStates: 1 << 19})
			if k1 != k2 {
				t.Errorf("store key unstable under search-shaping config: %s vs %s", k1, k2)
			}
		})
	}
}
