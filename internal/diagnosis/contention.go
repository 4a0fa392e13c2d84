package diagnosis

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"perfsight/internal/controller"
	"perfsight/internal/core"
)

// Scope distinguishes stack-level contention from a single-VM bottleneck
// (§5.1: "Contention and bottleneck can be distinguished based on whether
// loss is spread across multiple VMs (contention) or confined to one VM's
// software data path (bottleneck)").
type Scope int

const (
	ScopeNone Scope = iota
	ScopeContention
	ScopeBottleneck
)

func (s Scope) String() string {
	switch s {
	case ScopeContention:
		return "contention"
	case ScopeBottleneck:
		return "bottleneck"
	}
	return "none"
}

// ElementLoss is one ranked entry of Algorithm 1's output.
type ElementLoss struct {
	Element core.ElementID   `json:"element"`
	Kind    core.ElementKind `json:"kind"`
	VM      core.VMID        `json:"vm,omitempty"` // non-empty for per-VM elements (TUN)
	Loss    float64          `json:"loss"`         // packets dropped in the window
}

// ContentionReport is the full result of Algorithm 1 plus the rule-book
// inference.
type ContentionReport struct {
	// Ranked lists elements by packet loss, most first (SortByLoss).
	Ranked []ElementLoss `json:"ranked"`
	// TopLocation is the symptom class of the worst element(s).
	TopLocation DropLocation `json:"top_location"`
	// Candidates are all Table 1 resources consistent with the symptom.
	Candidates []Resource `json:"candidates,omitempty"`
	// Inferred is the disambiguated root-cause resource.
	Inferred Resource `json:"inferred"`
	// Scope says contention (multi-VM) vs bottleneck (single VM).
	Scope Scope `json:"scope"`
	// BottleneckVM names the VM when Scope is ScopeBottleneck.
	BottleneckVM core.VMID `json:"bottleneck_vm,omitempty"`
	// DroppingVMs lists VMs whose TUNs dropped in the window.
	DroppingVMs []core.VMID `json:"dropping_vms,omitempty"`
	// Evidence carries the secondary symptoms used for disambiguation.
	Evidence Evidence `json:"evidence"`
	// TotalLoss is the summed packet loss across the stack.
	TotalLoss float64 `json:"total_loss"`
	// HotFlows is the vswitch's heavy-hitter ranking from its sketch
	// summary — which flows carried the traffic during the window —
	// present only when the element reports sketch statistics (the
	// legacy enumeration keeps reports byte-identical to older builds).
	HotFlows *FlowReport `json:"hot_flows,omitempty"`
}

// String renders a one-line operator summary.
func (r *ContentionReport) String() string {
	if r.TotalLoss == 0 {
		return "no packet loss in the virtualization stack"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s at %s (%.0f pkts): %s", r.Scope, r.TopLocation, r.TotalLoss, r.Inferred)
	if r.BottleneckVM != "" {
		fmt.Fprintf(&b, " [vm=%s]", r.BottleneckVM)
	}
	return b.String()
}

// minLossPackets filters measurement noise: fewer total dropped packets
// than this in a window is reported as no problem.
const minLossPackets = 5

// hotFlowsTopK bounds the heavy-hitter evidence attached to reports.
const hotFlowsTopK = 10

// StackKind reports whether Algorithm 1 ranks elements of kind k: the
// virtualization stack, host gauge elements (KindUnknown) and
// middleboxes. Middleboxes are included because application-level
// elements can themselves lose packets (an IDS capture ring overflowing
// under CPU contention); ones without drop counters rank with zero loss.
func StackKind(k core.ElementKind) bool {
	return k.InVirtualizationStack() || k == core.KindUnknown || k == core.KindMiddlebox
}

// FindContentionAndBottleneck implements Algorithm 1: fetch the packet
// loss of every element in the tenant's virtualization stack over window
// T, sort by loss, and map the dominant drop location to the resource in
// shortage via the rule book.
func FindContentionAndBottleneck(ctl *controller.Controller, tid core.TenantID, T time.Duration) (rep *ContentionReport, err error) {
	start := time.Now()
	defer func() { observeRun("contention", start, contentionVerdict(rep, err)) }()
	ids := ctl.TenantElements(tid, func(_ core.ElementID, info core.ElementInfo) bool {
		return StackKind(info.Kind)
	})
	if len(ids) == 0 {
		return nil, fmt.Errorf("diagnosis: tenant %q has no virtualization-stack elements", tid)
	}
	ivs, err := ctl.SampleInterval(tid, ids, T)
	if len(ivs) == 0 {
		if err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("diagnosis: no elements of tenant %q answered", tid)
	}
	// Partial data (churn, a dead agent) is still diagnosable.
	return AnalyzeStackIntervals(ivs), nil
}

// AnalyzeStackIntervals runs the Algorithm 1 analysis over pre-collected
// intervals (shared by the live and offline paths).
func AnalyzeStackIntervals(ivs map[core.ElementID]controller.Interval) *ContentionReport {
	rep := &ContentionReport{}
	vmDrops := make(map[core.VMID]float64)

	for id, iv := range ivs {
		kind := iv.Cur.Kind()
		switch kind {
		case core.KindVSwitch:
			// Sketch-mode switches annotate the report with their heavy
			// hitters: constant-size evidence of who drove the traffic,
			// no matter how many flows the table holds.
			if rep.HotFlows == nil {
				if fr, ok := TopFlows(iv.Cur, hotFlowsTopK); ok && fr.Source == "sketch" {
					rep.HotFlows = fr
				}
			}
		case core.KindUnknown:
			// Host gauge element: evidence, not a drop point.
			rep.Evidence.CPUUtil = iv.Cur.GetOr(core.AttrCPUUtil, rep.Evidence.CPUUtil)
			rep.Evidence.MembusUtil = iv.Cur.GetOr(core.AttrMembusUtil, rep.Evidence.MembusUtil)
			continue
		case core.KindPNIC:
			rep.Evidence.PNICRxBps = iv.RxBps()
			rep.Evidence.PNICTxBps = iv.TxBps()
			rep.Evidence.PNICCapBps = iv.Cur.GetOr(core.AttrCapacityBps, rep.Evidence.PNICCapBps)
			if pkts := iv.Delta(core.AttrRxPackets) + iv.Delta(core.AttrTxPackets); pkts > 0 {
				rep.Evidence.AvgPktSize = (iv.Delta(core.AttrRxBytes) + iv.Delta(core.AttrTxBytes)) / pkts
			}
		}
		loss := iv.DropPackets()
		if loss < 0 {
			loss = 0
		}
		el := ElementLoss{Element: id, Kind: kind, VM: id.VM(), Loss: loss}
		rep.Ranked = append(rep.Ranked, el)
		rep.TotalLoss += loss
		if kind == core.KindTUN && loss > 0 {
			vmDrops[el.VM] += loss
		}
	}

	// SortByLoss, ties broken by ID for determinism.
	sort.Slice(rep.Ranked, func(i, j int) bool {
		if rep.Ranked[i].Loss != rep.Ranked[j].Loss {
			return rep.Ranked[i].Loss > rep.Ranked[j].Loss
		}
		return rep.Ranked[i].Element < rep.Ranked[j].Element
	})

	for vm := range vmDrops {
		rep.DroppingVMs = append(rep.DroppingVMs, vm)
	}
	sort.Slice(rep.DroppingVMs, func(i, j int) bool { return rep.DroppingVMs[i] < rep.DroppingVMs[j] })

	if rep.TotalLoss < minLossPackets || len(rep.Ranked) == 0 || rep.Ranked[0].Loss == 0 {
		rep.TotalLoss = 0
		rep.TopLocation = LocNone
		rep.Scope = ScopeNone
		return rep
	}

	top := rep.Ranked[0]
	multiVM := len(rep.DroppingVMs) > 1
	// Evidence corroboration: drops confined to one VM's TUN on a machine
	// whose CPU or memory bus is saturated are machine-level contention
	// that happened to overflow the most loaded VM first, not a VM-local
	// shortage (§5.1's combined-symptom guidance).
	hotMachine := rep.Evidence.MembusUtil >= hotBus || rep.Evidence.CPUUtil >= hotCPU
	if !multiVM && top.Kind == core.KindTUN && hotMachine {
		multiVM = true
	}
	rep.TopLocation = LocationOfKind(top.Kind, multiVM)
	var rb RuleBook
	rep.Candidates = rb.Candidates(rep.TopLocation)
	rep.Inferred = rb.Infer(rep.TopLocation, rep.Evidence)

	switch {
	case top.Kind == core.KindTUN && !multiVM:
		rep.Scope = ScopeBottleneck
		rep.BottleneckVM = top.VM
	default:
		rep.Scope = ScopeContention
	}
	return rep
}
