package mc_test

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"fenceplace/internal/ir"
	"fenceplace/internal/mc"
	"fenceplace/internal/passes"
	"fenceplace/internal/progs"
	"fenceplace/internal/tso"
)

// TestKernelOutcomesIndependentOfBufferCap backs the stated reach of a
// certificate. The checker explores TSO with 4-entry store buffers by
// default, so a certificate holds for TSO with 4-entry buffers; on every
// Table II kernel at CertParams(0, 0), unfenced and under the Pensieve and
// Control placements, 8-entry buffers reach exactly the same TSO outcome
// set.
func TestKernelOutcomesIndependentOfBufferCap(t *testing.T) {
	if got := (mc.Config{}).Normalize().BufferCap; got != 4 {
		t.Fatalf("default BufferCap = %d, want the 4 a certificate states", got)
	}
	for _, m := range progs.ByKind(progs.SyncKernel) {
		pp := m.CertParams(0, 0)
		builds := []struct {
			name string
			p    *ir.Program
		}{
			{"unfenced", m.Build(pp)},
			{"Pensieve", passes.NewSession(m.Build(pp)).Instrumented(passes.PensieveOnly)},
			{"Control", passes.NewSession(m.Build(pp)).Instrumented(passes.Control)},
		}
		for _, b := range builds {
			label := fmt.Sprintf("%s/%s", m.Name, b.name)
			var keys [2][]string
			for i, bufCap := range []int{4, 8} {
				ss, err := mc.ExploreCompleteCtx(context.Background(), b.p, nil, mc.Config{Mode: tso.TSO, BufferCap: bufCap})
				if err != nil {
					t.Fatalf("%s at cap %d: %v", label, bufCap, err)
				}
				keys[i] = ss.Keys()
			}
			if !slices.Equal(keys[0], keys[1]) {
				t.Errorf("%s: TSO outcomes differ between buffer caps\n  cap 4 %v\n  cap 8 %v", label, keys[0], keys[1])
			}
		}
	}
}
