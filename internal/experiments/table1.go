package experiments

import (
	"fmt"
	"strings"

	"perfsight/internal/core"
	"perfsight/internal/diagnosis"
)

// Table1Row is one exhaustive single-shortage probe and its outcome.
type Table1Row struct {
	Resource    diagnosis.Resource
	ExpectedLoc diagnosis.DropLocation
	ObservedLoc diagnosis.DropLocation
	Inferred    diagnosis.Resource
	Scope       diagnosis.Scope
	OK          bool
}

// Table1Result rebuilds the paper's rule book (Table 1) the way the paper
// did: "we set up a variety of experiments where VMs contend for different
// resources, and we exhaustively track possible packet loss locations".
type Table1Result struct {
	Rows []Table1Row
}

// AllCorrect reports whether every probe landed on the expected location
// and resource.
func (r *Table1Result) AllCorrect() bool {
	for _, row := range r.Rows {
		if !row.OK {
			return false
		}
	}
	return len(r.Rows) > 0
}

// String renders the rule book table.
func (r *Table1Result) String() string {
	var b strings.Builder
	b.WriteString("Table 1: resource in shortage and symptom rule book\n")
	b.WriteString("resource in shortage   expected location   observed location   inferred             ok\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-21s  %-18s  %-18s  %-20s %v\n",
			row.Resource, row.ExpectedLoc, row.ObservedLoc, row.Inferred, row.OK)
	}
	return b.String()
}

const probeTenant = core.TenantID("t-probe")

// RunTable1 runs the fault table's stack faults, the rows that name a drop
// location, each in a fresh lab.
func RunTable1() (*Table1Result, error) {
	res := &Table1Result{}
	for _, f := range Faults {
		if f.Location == diagnosis.LocNone {
			continue
		}
		rep, _, err := f.Diagnose(probeTenant)
		if err != nil {
			return nil, fmt.Errorf("table1 %s probe: %w", f.Resource, err)
		}
		res.Rows = append(res.Rows, Table1Row{
			Resource:    f.Resource,
			ExpectedLoc: f.Location,
			ObservedLoc: rep.TopLocation,
			Inferred:    rep.Inferred,
			Scope:       rep.Scope,
			OK:          rep.TopLocation == f.Location && rep.Inferred == f.Resource,
		})
	}
	return res, nil
}
