package main

import (
	"context"
	"strings"
	"testing"

	"fenceplace"
)

func TestTable2AndFig2Render(t *testing.T) {
	if s := renderTable2(); !strings.Contains(s, "chaselev") || !strings.Contains(s, "matches the paper") {
		t.Errorf("Table II incomplete:\n%s", s)
	}
	if s := renderFig2(); !strings.Contains(s, "5 fences") || !strings.Contains(s, "2 fences") {
		t.Errorf("Figure 2 worked example does not reproduce 5 -> 2:\n%s", s)
	}
}

// TestCertTableRenders certifies the kernel corpus without a store and
// checks the table carries verdicts and the warm-vs-cold footer.
func TestCertTableRenders(t *testing.T) {
	t.Setenv("FENCEPLACE_CACHE_DIR", "") // never read or write the operator's cache
	var out strings.Builder
	opts := []fenceplace.Option{fenceplace.WithMaxStates(1 << 20), fenceplace.WithCacheDir("")}
	rep, err := runCert(context.Background(), &out, 0, 0, 0, opts, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Rows) == 0 {
		t.Fatal("empty certification set")
	}
	s := out.String()
	if !strings.Contains(s, "certified") || !strings.Contains(s, "peterson") {
		t.Errorf("certification table incomplete:\n%s", s)
	}
	for _, footer := range []string{"SC explorations:", "TSO explorations:"} {
		if !strings.Contains(s, footer) {
			t.Errorf("certification table missing the %q footer:\n%s", footer, s)
		}
	}
}
