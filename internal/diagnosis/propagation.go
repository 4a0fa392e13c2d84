package diagnosis

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"perfsight/internal/controller"
	"perfsight/internal/core"
)

// MBState is a middlebox's inferred state (§5.2, Figure 7).
type MBState int

const (
	StateNormal MBState = iota
	StateReadBlocked
	StateWriteBlocked
)

func (s MBState) String() string {
	switch s {
	case StateReadBlocked:
		return "ReadBlocked"
	case StateWriteBlocked:
		return "WriteBlocked"
	}
	return "Normal"
}

// MBMetrics is one middlebox's measured I/O rates over the window — the
// b/t_input, b/t_output values the Fig 12 tables report.
type MBMetrics struct {
	State       MBState `json:"state"`
	InRateBps   float64 `json:"in_rate_bps"`
	OutRateBps  float64 `json:"out_rate_bps"`
	InActive    bool    `json:"in_active"`  // the input method accumulated time
	OutActive   bool    `json:"out_active"` // the output method accumulated time
	CapacityBps float64 `json:"capacity_bps"`
}

// PruneStep records one pruning decision of Algorithm 2 (lines 13–17):
// which middlebox's state fired, and which candidates it removed. The
// trace is the evidence a diagnosis event carries so an operator can
// audit why the surviving root causes survived.
type PruneStep struct {
	Middlebox core.ElementID `json:"middlebox"`
	State     MBState        `json:"state"`
	// Removed lists the candidates this step deleted (the middlebox
	// itself plus its successors or predecessors), sorted; candidates
	// already removed by an earlier step are not repeated.
	Removed []core.ElementID `json:"removed"`
}

// RootCauseReport is the result of Algorithm 2.
type RootCauseReport struct {
	// Metrics holds per-middlebox states and rates.
	Metrics map[core.ElementID]MBMetrics `json:"metrics"`
	// RootCauses are the candidates remaining after pruning, sorted.
	RootCauses []core.ElementID `json:"root_causes"`
	// SourceUnderloaded is set when every chain member was pruned as
	// ReadBlocked: the traffic source itself is underloaded (Fig 12(c)).
	SourceUnderloaded bool `json:"source_underloaded"`
	// Overloaded flags root causes whose predecessors are WriteBlocked —
	// the Figure 7 "Overloaded" label.
	Overloaded map[core.ElementID]bool `json:"overloaded,omitempty"`
	// Pruning is the ordered trace of pruning decisions.
	Pruning []PruneStep `json:"pruning,omitempty"`
}

// String renders an operator summary.
func (r *RootCauseReport) String() string {
	var b strings.Builder
	if r.SourceUnderloaded {
		b.WriteString("all middleboxes ReadBlocked: traffic source is Underloaded")
	} else if len(r.RootCauses) == 0 {
		b.WriteString("no root cause isolated")
	} else {
		fmt.Fprintf(&b, "root cause(s):")
		for _, id := range r.RootCauses {
			label := "bottleneck"
			if r.Overloaded[id] {
				label = "Overloaded"
			}
			fmt.Fprintf(&b, " %s(%s)", id, label)
		}
	}
	return b.String()
}

// ChainKind reports whether Algorithm 2 analyzes elements of kind k:
// the middleboxes of the tenant's chains.
func ChainKind(k core.ElementKind) bool { return k == core.KindMiddlebox }

// LocateRootCause implements Algorithm 2: fetch every middlebox's
// input/output bytes and times over window T, classify each as
// ReadBlocked (b_in/t_in < C) or WriteBlocked (b_out/t_out < C), then
// prune each ReadBlocked middlebox together with its successors and each
// WriteBlocked middlebox together with its predecessors. What remains is
// the plausible root cause set.
func LocateRootCause(ctl *controller.Controller, tid core.TenantID, T time.Duration) (rep *RootCauseReport, err error) {
	start := time.Now()
	defer func() { observeRun("rootcause", start, rootCauseVerdict(rep, err)) }()
	mbs := ctl.TenantElements(tid, func(_ core.ElementID, info core.ElementInfo) bool {
		return ChainKind(info.Kind)
	})
	if len(mbs) == 0 {
		return nil, fmt.Errorf("diagnosis: tenant %q has no middleboxes", tid)
	}
	ivs, err := ctl.SampleInterval(tid, mbs, T)
	if len(ivs) == 0 {
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("diagnosis: no middleboxes of tenant %q answered", tid)
	}
	// Partial data (churn, a dead agent) is still diagnosable.
	net := ctl.Topology().Tenants[tid]
	return AnalyzeChainIntervals(ivs, net), nil
}

// AnalyzeChainIntervals runs Algorithm 2 over pre-collected middlebox
// intervals and the tenant's chain topology.
func AnalyzeChainIntervals(ivs map[core.ElementID]controller.Interval, net *core.VirtualNet) *RootCauseReport {
	rep := &RootCauseReport{
		Metrics:    make(map[core.ElementID]MBMetrics, len(ivs)),
		Overloaded: make(map[core.ElementID]bool),
	}

	cand := make(map[core.ElementID]bool, len(ivs))
	for id := range ivs {
		cand[id] = true
	}

	ids := make([]core.ElementID, 0, len(ivs))
	for id := range ivs {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	for _, id := range ids {
		iv := ivs[id]
		m := MBMetrics{CapacityBps: iv.Cur.GetOr(core.AttrCapacityBps, 0)}
		m.InRateBps, m.InActive = iv.InRate()
		m.OutRateBps, m.OutActive = iv.OutRate()

		C := m.CapacityBps
		dIn := iv.Delta(core.AttrInBytes)
		dtIn := iv.Delta(core.AttrInTimeNS) / 1e9
		dOut := iv.Delta(core.AttrOutBytes)
		dtOut := iv.Delta(core.AttrOutTimeNS) / 1e9
		switch {
		// The paper's line 12 test: t2i − t1i > (b2i − b1i)/C.
		case C > 0 && m.InActive && dtIn > dIn*8/C:
			m.State = StateReadBlocked
		// Line 15: t2o − t1o > (b2o − b1o)/C.
		case C > 0 && m.OutActive && dtOut > dOut*8/C:
			m.State = StateWriteBlocked
		default:
			m.State = StateNormal
		}
		rep.Metrics[id] = m
	}

	// Pruning passes (lines 13–17). Each step's removals are recorded so
	// diagnosis events can show why the survivors survived.
	prune := func(id core.ElementID, state MBState, also []core.ElementID) {
		step := PruneStep{Middlebox: id, State: state}
		if cand[id] {
			delete(cand, id)
			step.Removed = append(step.Removed, id)
		}
		for _, other := range also {
			if cand[other] {
				delete(cand, other)
				step.Removed = append(step.Removed, other)
			}
		}
		sort.Slice(step.Removed, func(i, j int) bool { return step.Removed[i] < step.Removed[j] })
		rep.Pruning = append(rep.Pruning, step)
	}
	for _, id := range ids {
		switch rep.Metrics[id].State {
		case StateReadBlocked:
			var also []core.ElementID
			if net != nil {
				also = net.Successors(id)
			}
			prune(id, StateReadBlocked, also)
		case StateWriteBlocked:
			var also []core.ElementID
			if net != nil {
				also = net.Predecessors(id)
			}
			prune(id, StateWriteBlocked, also)
		}
	}

	for id := range cand {
		rep.RootCauses = append(rep.RootCauses, id)
	}
	sort.Slice(rep.RootCauses, func(i, j int) bool { return rep.RootCauses[i] < rep.RootCauses[j] })

	if len(rep.RootCauses) == 0 {
		// Every middlebox pruned: with WriteBlocked members the bottleneck
		// is beyond the instrumented chain; with only ReadBlocked members
		// the source is underloaded (Fig 12(c)).
		anyWrite := false
		for _, m := range rep.Metrics {
			if m.State == StateWriteBlocked {
				anyWrite = true
				break
			}
		}
		rep.SourceUnderloaded = !anyWrite
	}

	// Label remaining causes Overloaded when upstream pressure is visible.
	for _, id := range rep.RootCauses {
		if net == nil {
			break
		}
		for _, pred := range net.Predecessors(id) {
			if m, ok := rep.Metrics[pred]; ok && m.State == StateWriteBlocked {
				rep.Overloaded[id] = true
				break
			}
		}
	}
	return rep
}
