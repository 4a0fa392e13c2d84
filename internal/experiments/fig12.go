package experiments

import (
	"fmt"
	"strings"

	"perfsight/internal/core"
	"perfsight/internal/diagnosis"
)

// Fig12Case identifies one of the three propagation scenarios.
type Fig12Case string

const (
	Fig12OverloadedServer  Fig12Case = "overloaded-server"
	Fig12UnderloadedClient Fig12Case = "underloaded-client"
	Fig12ProblematicNFS    Fig12Case = "problematic-nfs"
)

// Fig12Metrics is the b/t table the paper prints for each middlebox.
type Fig12Metrics struct {
	Element     core.ElementID
	InRateMbps  float64 // b/t_input
	OutRateMbps float64 // b/t_output ("N/A" when the box has no output)
	HasOut      bool
	State       diagnosis.MBState
}

// Fig12CaseResult is one scenario's outcome.
type Fig12CaseResult struct {
	Case              Fig12Case
	Metrics           []Fig12Metrics
	RootCauses        []core.ElementID
	SourceUnderloaded bool
	OK                bool
}

// Fig12Result reproduces Figure 12: a load balancer and two content
// filters (logging to a shared NFS server) between a client and HTTP
// servers; Algorithm 2 must isolate the true root cause in each case.
type Fig12Result struct {
	Cases []Fig12CaseResult
}

// AllCorrect reports whether every case found the expected root cause.
func (r *Fig12Result) AllCorrect() bool {
	for _, c := range r.Cases {
		if !c.OK {
			return false
		}
	}
	return len(r.Cases) == 3
}

// String renders the per-case tables.
func (r *Fig12Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 12: root cause detection in the face of propagation (vNIC C = 100 Mbps)\n")
	for _, c := range r.Cases {
		fmt.Fprintf(&b, "\ncase %s:\n", c.Case)
		b.WriteString("middlebox            b/t_in (Mbps)  b/t_out (Mbps)  state\n")
		for _, m := range c.Metrics {
			out := "N/A"
			if m.HasOut {
				out = fmt.Sprintf("%.1f", m.OutRateMbps)
			}
			fmt.Fprintf(&b, "%-20s  %12.1f  %14s  %s\n", string(m.Element), m.InRateMbps, out, m.State)
		}
		if c.SourceUnderloaded {
			b.WriteString("verdict: traffic source Underloaded\n")
		} else {
			fmt.Fprintf(&b, "verdict: root cause(s) %v\n", c.RootCauses)
		}
		fmt.Fprintf(&b, "correct: %v\n", c.OK)
	}
	return b.String()
}

const fig12Tenant = core.TenantID("t-chain")

// RunFig12 runs the fault table's three Fig 12 rows through Algorithm 2.
func RunFig12() (*Fig12Result, error) {
	res := &Fig12Result{}
	for _, c := range []Fig12Case{Fig12OverloadedServer, Fig12UnderloadedClient, Fig12ProblematicNFS} {
		f, _ := FaultByName(string(c))
		_, rep, err := f.Diagnose(fig12Tenant)
		if err != nil {
			return nil, err
		}
		res.Cases = append(res.Cases, fig12Case(f, rep))
	}
	return res, nil
}

// fig12Case tabulates Algorithm 2's report and scores it against the
// row's root causes.
func fig12Case(f Fault, rep *diagnosis.RootCauseReport) Fig12CaseResult {
	out := Fig12CaseResult{
		Case:              Fig12Case(f.Name),
		RootCauses:        rep.RootCauses,
		SourceUnderloaded: rep.SourceUnderloaded,
	}
	for _, id := range Fig12Elements {
		m, ok := rep.Metrics[id]
		if !ok {
			continue
		}
		out.Metrics = append(out.Metrics, Fig12Metrics{
			Element:     id,
			InRateMbps:  m.InRateBps / 1e6,
			OutRateMbps: m.OutRateBps / 1e6,
			HasOut:      m.OutActive,
			State:       m.State,
		})
	}
	if len(f.RootCauses) == 0 {
		out.OK = rep.SourceUnderloaded
	} else {
		out.OK = sameElements(rep.RootCauses, f.RootCauses)
	}
	return out
}

func sameElements(got, want []core.ElementID) bool {
	if len(got) != len(want) {
		return false
	}
	seen := make(map[core.ElementID]bool, len(want))
	for _, w := range want {
		seen[w] = true
	}
	for _, g := range got {
		if !seen[g] {
			return false
		}
	}
	return true
}
