package diagnosis

import (
	"fmt"
	"sort"
	"strings"

	"perfsight/internal/core"
	"perfsight/internal/dataplane"
)

// FlowStat is one per-flow traffic entry of a flow report.
type FlowStat struct {
	Flow  string  `json:"flow"`
	Pkts  float64 `json:"pkts"`
	Bytes float64 `json:"bytes"`
	// Exact is true when Pkts/Bytes are the flow's true counts: always on
	// the legacy enumeration path, and on the sketch path for heavy
	// hitters tracked since their first packet. When false, the values
	// overcount by at most ErrPkts/ErrBytes.
	Exact    bool    `json:"exact"`
	ErrPkts  float64 `json:"err_pkts,omitempty"`
	ErrBytes float64 `json:"err_bytes,omitempty"`
}

// FlowReport is the per-element flow ranking consumed by ranked-drop
// evidence, the /flows endpoint and `perfsight flows`.
type FlowReport struct {
	Element core.ElementID `json:"element"`
	// Source is "sketch" (bounded-memory summary) or "legacy" (per-rule
	// enumeration attrs).
	Source string     `json:"source"`
	Flows  []FlowStat `json:"flows,omitempty"`
	// Sketch-only fields: the summary epoch, the traffic totals, and the
	// count-min error bound ε·N that applies to any flow absent from the
	// top-k (with probability 1−DeltaProb).
	Epoch        uint64  `json:"epoch,omitempty"`
	TotalPkts    uint64  `json:"total_pkts,omitempty"`
	TotalBytes   uint64  `json:"total_bytes,omitempty"`
	Epsilon      float64 `json:"epsilon,omitempty"`
	DeltaProb    float64 `json:"delta_prob,omitempty"`
	ErrBoundPkts float64 `json:"err_bound_pkts,omitempty"`
}

const legacyRulePrefix = "rule_"

// TopFlows ranks the element record's per-flow traffic, heaviest first,
// truncated to k (k <= 0 means all). It prefers the constant-size
// flow_sketch summary attr — heavy hitters with exactness flags plus the
// ε·N bound for everything else — and falls back to enumerating legacy
// `rule_<flow>_packets`/`_bytes` attrs from old agents, so mixed-version
// fleets rank either way. Records with neither return ok=false.
func TopFlows(rec core.Record, k int) (*FlowReport, bool) {
	// History may surface the sketch attr's epoch series without its
	// payload (queries into deep past); that falls through to the legacy
	// scan rather than erroring.
	if a, ok := rec.GetAttr(core.SketchAttrID()); ok && len(a.Payload) > 0 {
		sum, err := dataplane.DecodeSketch(a.Payload)
		if err != nil {
			return nil, false
		}
		rep := &FlowReport{
			Element:      rec.Element,
			Source:       "sketch",
			Epoch:        sum.Epoch,
			TotalPkts:    sum.TotalPkts,
			TotalBytes:   sum.TotalBytes,
			Epsilon:      sum.Epsilon(),
			DeltaProb:    sum.DeltaProb(),
			ErrBoundPkts: sum.ErrBoundPkts(),
		}
		top := sum.Top
		if k > 0 && len(top) > k {
			top = top[:k]
		}
		rep.Flows = make([]FlowStat, len(top))
		for i, t := range top {
			rep.Flows[i] = FlowStat{
				Flow: t.Flow, Pkts: float64(t.Pkts), Bytes: float64(t.Bytes),
				Exact: t.Exact(), ErrPkts: float64(t.ErrPkts), ErrBytes: float64(t.ErrBytes),
			}
		}
		return rep, true
	}
	return legacyTopFlows(rec, k)
}

// legacyTopFlows ranks per-rule enumeration attrs: exact, but O(flows)
// in both the record and the attr registry.
func legacyTopFlows(rec core.Record, k int) (*FlowReport, bool) {
	byFlow := make(map[string]*FlowStat)
	for i := range rec.Attrs {
		name := rec.Attrs[i].Name()
		if !strings.HasPrefix(name, legacyRulePrefix) {
			continue
		}
		rest := name[len(legacyRulePrefix):]
		var flow string
		var isPkts bool
		if f, ok := strings.CutSuffix(rest, "_packets"); ok {
			flow, isPkts = f, true
		} else if f, ok := strings.CutSuffix(rest, "_bytes"); ok {
			flow = f
		} else {
			continue
		}
		fs := byFlow[flow]
		if fs == nil {
			fs = &FlowStat{Flow: flow, Exact: true}
			byFlow[flow] = fs
		}
		if isPkts {
			fs.Pkts = rec.Attrs[i].Value
		} else {
			fs.Bytes = rec.Attrs[i].Value
		}
	}
	if len(byFlow) == 0 {
		return nil, false
	}
	rep := &FlowReport{Element: rec.Element, Source: "legacy", Flows: make([]FlowStat, 0, len(byFlow))}
	for _, fs := range byFlow {
		rep.Flows = append(rep.Flows, *fs)
	}
	sort.Slice(rep.Flows, func(i, j int) bool {
		if rep.Flows[i].Pkts != rep.Flows[j].Pkts {
			return rep.Flows[i].Pkts > rep.Flows[j].Pkts
		}
		return rep.Flows[i].Flow < rep.Flows[j].Flow
	})
	if k > 0 && len(rep.Flows) > k {
		rep.Flows = rep.Flows[:k]
	}
	return rep, true
}

// String renders the report as an operator table.
func (r *FlowReport) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s flows (%s)", r.Element, r.Source)
	if r.Source == "sketch" {
		fmt.Fprintf(&b, " epoch=%d total=%d pkts, non-top-k error ≤ %.1f pkts (p=%.3f)",
			r.Epoch, r.TotalPkts, r.ErrBoundPkts, 1-r.DeltaProb)
	}
	b.WriteByte('\n')
	for _, f := range r.Flows {
		mark := "≈"
		if f.Exact {
			mark = "="
		}
		fmt.Fprintf(&b, "  %-20s %s %12.0f pkts %14.0f bytes", f.Flow, mark, f.Pkts, f.Bytes)
		if !f.Exact {
			fmt.Fprintf(&b, "  (+≤%.0f/%.0f)", f.ErrPkts, f.ErrBytes)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
