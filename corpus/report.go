package corpus

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Version is the Report wire-format version. Decode rejects mismatches:
// a report written by an incompatible build must fail loudly, not render
// silently wrong numbers into a table.
const Version = 1

// Report is the plain-data result of a corpus run: one Row per program,
// sorted by corpus Index. Everything the paper's tables render is in
// here — counts, timings, cert verdicts — so a report written to JSON and
// decoded again renders the same tables byte for byte.
type Report struct {
	Version int    `json:"version"`
	Source  string `json:"source,omitempty"` // provenance: the producing Source's label
	Rows    []Row  `json:"rows"`
}

// Row is the full record for one program.
type Row struct {
	Index    int       `json:"index"` // position in the source
	Program  string    `json:"program"`
	EscReads int       `json:"escaping_reads"` // Figure 7's denominator
	Variants []Variant `json:"variants"`       // display order: Manual (if built), Pensieve, Address+Control, Control
}

// Variant is one fence placement of a program: the expert Manual build or
// an analyzed strategy.
type Variant struct {
	Name     string `json:"name"`
	Analyzed bool   `json:"analyzed"` // false for Manual (no static analysis behind it)

	Acquires         int            `json:"acquires,omitempty"`
	Generated        int            `json:"orderings_generated,omitempty"`
	Orderings        OrderingCounts `json:"orderings,omitempty"`
	FullFences       int            `json:"full_fences"`
	CompilerBarriers int            `json:"compiler_barriers,omitempty"`

	// Cycles holds the simulated TSO execution time of one run per seed
	// (seed s at index s); empty when the dynamic experiment was skipped.
	Cycles []int64 `json:"cycles,omitempty"`

	Cert *Cert `json:"cert,omitempty"`
}

// OrderingCounts breaks the enforced ordering set down by type.
type OrderingCounts struct {
	RR    int `json:"rr"`
	RW    int `json:"rw"`
	WR    int `json:"wr"`
	WW    int `json:"ww"`
	Total int `json:"total"`
}

// Certification statuses.
const (
	CertCertified = "certified" // SC-equivalent
	CertViolation = "violation" // a TSO-only final state exists
	CertBudget    = "budget"    // state budget exhausted; verdict unknown
	CertError     = "error"     // the exploration failed outright
)

// Cert is the plain-data verdict of one certification.
type Cert struct {
	Status      string `json:"status"`
	SCOutcomes  int    `json:"sc_outcomes,omitempty"`
	TSOOutcomes int    `json:"tso_outcomes,omitempty"`
	VisitedSC   int64  `json:"visited_sc,omitempty"`
	VisitedTSO  int64  `json:"visited_tso,omitempty"`
	Violations  int    `json:"violations,omitempty"`
	// Counterexample is the first reconstructed violation schedule, when
	// one exists.
	Counterexample string `json:"counterexample,omitempty"`
	Err            string `json:"error,omitempty"`
}

// Cell renders the certification as the evaluation table's cell text.
func (c *Cert) Cell() string {
	switch c.Status {
	case CertCertified:
		return fmt.Sprintf("certified (%d states)", c.VisitedTSO)
	case CertViolation:
		return fmt.Sprintf("VIOLATION (%d TSO-only)", c.Violations)
	case CertBudget:
		return "budget exceeded"
	default:
		return fmt.Sprintf("error: %v", c.Err)
	}
}

// variant returns the row's named variant, or nil.
func (r *Row) variant(name string) *Variant {
	for i := range r.Variants {
		if r.Variants[i].Name == name {
			return &r.Variants[i]
		}
	}
	return nil
}

// sortRows orders rows by corpus index.
func (r *Report) sortRows() {
	sort.Slice(r.Rows, func(i, j int) bool { return r.Rows[i].Index < r.Rows[j].Index })
}

// EncodeJSON writes the report as indented JSON. The encoding is
// deterministic (fixed field order, rows sorted by Index), so identical
// runs produce identical bytes.
func (r *Report) EncodeJSON(w io.Writer) error {
	r.sortRows()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// DecodeJSON reads a report and verifies its version.
func DecodeJSON(rd io.Reader) (*Report, error) {
	var r Report
	dec := json.NewDecoder(rd)
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("corpus: decode report: %w", err)
	}
	if r.Version != Version {
		return nil, fmt.Errorf("corpus: report version %d, this build reads %d", r.Version, Version)
	}
	r.sortRows()
	return &r, nil
}
