package mc_test

// Seen-set tables are recycled across explorations (tablePool): these
// tests check that a recycled table starts empty, that concurrent
// explorations can share the pool, and that an exploration's set-up costs
// what its state space needs rather than 64 fresh tables.

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"testing"

	"fenceplace/internal/ir"
	"fenceplace/internal/mc"
	"fenceplace/internal/passes"
	"fenceplace/internal/progs"
	"fenceplace/internal/tso"
)

// kernelVisits are the one-worker visit counts of every cert-kernels cell,
// the table corpus.TestCertKernelsVisitCounts pins: the SC baseline and
// the TSO exploration of each variant.
var kernelVisits = map[string]struct{ sc, manual, pensieve, addrCtl, control int64 }{
	"chaselev":  {574, 907, 681, 681, 681},
	"cilk5":     {716, 1663, 938, 938, 938},
	"clh":       {778, 1665, 995, 995, 995},
	"dekker":    {636, 1207, 711, 711, 711},
	"lamport":   {2592, 6706, 3172, 3172, 3172},
	"mcs":       {1515, 2977, 1836, 1836, 1836},
	"msqueue":   {253, 349, 300, 300, 300},
	"peterson":  {488, 660, 521, 521, 521},
	"szymanski": {780, 1032, 824, 824, 824},
}

// certBuilds returns m's unfenced build at CertParams and its four
// certified variants (Manual, Pensieve, Address+Control, Control), in the
// order of kernelVisits' TSO columns.
func certBuilds(m *progs.Meta) (orig *ir.Program, variants []*ir.Program) {
	pp := m.CertParams(0, 0)
	orig = m.Build(pp)
	sess := passes.NewSession(m.Build(pp))
	pp.Manual = true
	return orig, []*ir.Program{
		m.Build(pp),
		sess.Instrumented(passes.PensieveOnly),
		sess.Instrumented(passes.AddressControl),
		sess.Instrumented(passes.Control),
	}
}

func explore(t *testing.T, p *ir.Program, mode tso.Mode, workers int) *mc.StateSet {
	t.Helper()
	ss, err := mc.ExploreCompleteCtx(context.Background(), p, nil, mc.Config{Mode: mode, Workers: workers})
	if err != nil {
		t.Fatal(err)
	}
	return ss
}

// TestRecycledSeenTablesStartEmpty fills the table pool with used tables
// from a large exploration, then explores every cert-kernels cell at one
// worker: a recycled table that kept an entry would prune states, so each
// visit count must equal kernelVisits. Two certifications of different
// kernels then run concurrently at two workers, sharing the pool, and
// both must reach their one-worker outcome sets.
func TestRecycledSeenTablesStartEmpty(t *testing.T) {
	lamport := progs.ByName("lamport")
	pp := lamport.CertParams(0, 0)
	pp.Manual = true
	if got := explore(t, lamport.Build(pp), tso.TSO, 1).Visited; got != kernelVisits["lamport"].manual {
		t.Fatalf("lamport/Manual TSO visited %d states, want %d", got, kernelVisits["lamport"].manual)
	}

	type cell struct {
		orig, inst *ir.Program
		sc, ts     []string // one-worker outcome keys
	}
	cells := map[string]cell{}
	for _, m := range progs.ByKind(progs.SyncKernel) {
		want, ok := kernelVisits[m.Name]
		if !ok {
			t.Fatalf("%s: no recorded visit counts", m.Name)
		}
		orig, variants := certBuilds(m)
		sc := explore(t, orig, tso.SC, 1)
		if sc.Visited != want.sc {
			t.Errorf("%s SC: visited %d states, want %d", m.Name, sc.Visited, want.sc)
		}
		names := []string{"Manual", "Pensieve", "Address+Control", "Control"}
		for i, wantTSO := range []int64{want.manual, want.pensieve, want.addrCtl, want.control} {
			ts := explore(t, variants[i], tso.TSO, 1)
			if ts.Visited != wantTSO {
				t.Errorf("%s/%s TSO: visited %d states, want %d", m.Name, names[i], ts.Visited, wantTSO)
			}
			if names[i] == "Control" {
				cells[m.Name] = cell{orig, variants[i], sc.Keys(), ts.Keys()}
			}
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for _, name := range []string{"dekker", "lamport"} {
		c := cells[name]
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs <- certifyRepeatedly(name, c.orig, c.inst, c.sc, c.ts)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}
}

// certifyRepeatedly certifies inst against orig's baseline at two workers
// a few times, checking each run's outcome sets against the one-worker
// ones.
func certifyRepeatedly(name string, orig, inst *ir.Program, sc, ts []string) error {
	ctx := context.Background()
	cfg := mc.Config{Workers: 2}
	for run := 0; run < 5; run++ {
		base, err := mc.NewBaselineCtx(ctx, orig, nil, cfg)
		if err != nil {
			return err
		}
		tcfg := cfg
		tcfg.Mode = tso.TSO
		set, err := mc.ExploreCompleteCtx(ctx, inst, nil, tcfg)
		if err != nil {
			return err
		}
		rep, err := mc.Compare(ctx, base, inst, set, cfg)
		if err != nil {
			return err
		}
		switch {
		case !slices.Equal(base.SC.Keys(), sc):
			return fmt.Errorf("%s run %d: SC outcomes %v, want %v", name, run, base.SC.Keys(), sc)
		case !slices.Equal(set.Keys(), ts):
			return fmt.Errorf("%s run %d: TSO outcomes %v, want %v", name, run, set.Keys(), ts)
		case !rep.Equivalent:
			return fmt.Errorf("%s run %d: %s", name, run, rep)
		}
	}
	return nil
}

// TestExplorationSetUpAllocs pins what a warm exploration of a small state
// space allocates: dekker's SC exploration at CertParams (636 states) must
// stay under 64 KiB at one and at two workers. Fresh seen-set tables alone
// cost 64 × 128 slots × 26 B = 208 KiB. The garbage collector is off for
// the measurement, so it cannot empty the pools between runs.
func TestExplorationSetUpAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled items at random")
	}
	m := progs.ByName("dekker")
	p := m.Build(m.CertParams(0, 0))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, workers := range []int{1, 2} {
		cfg := mc.Config{Mode: tso.SC, Workers: workers}
		for warm := 0; warm < 3; warm++ {
			if _, err := mc.Explore(p, nil, cfg); err != nil {
				t.Fatal(err)
			}
		}
		const runs = 20
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range runs {
			if _, err := mc.Explore(p, nil, cfg); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		if per := (after.TotalAlloc - before.TotalAlloc) / runs; per >= 64<<10 {
			t.Errorf("%d workers: a warm dekker SC exploration allocated %d bytes, want < %d", workers, per, 64<<10)
		} else {
			t.Logf("%d workers: %d bytes per exploration", workers, per)
		}
	}
}
