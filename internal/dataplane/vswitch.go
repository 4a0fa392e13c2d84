package dataplane

import (
	"sort"
	"sync"
	"sync/atomic"

	"perfsight/internal/core"
	"perfsight/internal/stats"
)

// ActionKind is what the virtual switch does with a matched flow.
type ActionKind int

const (
	// ActionDrop discards the flow (default for unmatched traffic).
	ActionDrop ActionKind = iota
	// ActionToVM outputs to the TUN socket queue of a local VM.
	ActionToVM
	// ActionToPNIC outputs to the physical NIC transmit queue.
	ActionToPNIC
)

// Rule is one flow-table entry with its own statistics, mirroring Open
// vSwitch per-rule counters fetched over the OpenFlow control channel.
type Rule struct {
	Flow   FlowID
	Action ActionKind
	VM     core.VMID // for ActionToVM

	Packets stats.Counter
	Bytes   stats.Counter
}

// VSwitch models the Open vSwitch datapath: a flow table consulted by the
// NAPI routine's frame-handling callback. The switch itself is unbuffered —
// a function call between elements — so its only drops are policy drops
// (unmatched traffic).
type VSwitch struct {
	Base
	mu    sync.RWMutex
	rules map[FlowID]*Rule

	// flows, when non-nil, summarizes per-flow traffic in bounded memory
	// (count-min + top-k) instead of relying on per-rule enumeration.
	// Loaded without the rule-table lock: it is set before traffic starts.
	flows atomic.Pointer[FlowSketch]
}

// NewVSwitch builds an empty switch.
func NewVSwitch(id core.ElementID) *VSwitch {
	return &VSwitch{
		Base:  NewBase(id, core.KindVSwitch),
		rules: make(map[FlowID]*Rule),
	}
}

// Install adds or replaces the rule for a flow.
func (v *VSwitch) Install(flow FlowID, action ActionKind, vm core.VMID) {
	v.mu.Lock()
	defer v.mu.Unlock()
	v.rules[flow] = &Rule{Flow: flow, Action: action, VM: vm}
}

// InstallToVM routes a flow to a local VM's TUN.
func (v *VSwitch) InstallToVM(flow FlowID, vm core.VMID) { v.Install(flow, ActionToVM, vm) }

// InstallToPNIC routes a flow out the physical NIC.
func (v *VSwitch) InstallToPNIC(flow FlowID) { v.Install(flow, ActionToPNIC, "") }

// Remove deletes a flow's rule.
func (v *VSwitch) Remove(flow FlowID) {
	v.mu.Lock()
	defer v.mu.Unlock()
	delete(v.rules, flow)
}

// Lookup returns the rule for a flow (nil if unmatched).
func (v *VSwitch) Lookup(flow FlowID) *Rule {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.rules[flow]
}

// EnableFlowSketch switches the element to sketch-based flow statistics:
// Count feeds every batch into a count-min + top-k summary whose memory
// grows with the cells its flows touch, up to a bound set by the config
// and independent of the flow count. Call before traffic starts.
func (v *VSwitch) EnableFlowSketch(cfg SketchConfig) *FlowSketch {
	fs := NewFlowSketch(cfg)
	v.flows.Store(fs)
	return fs
}

// FlowStats returns the sketch, or nil when running in legacy exact mode.
func (v *VSwitch) FlowStats() *FlowSketch { return v.flows.Load() }

// Count records a batch processed under rule r.
func (v *VSwitch) Count(r *Rule, b Batch) {
	r.Packets.Add(uint64(b.Packets))
	r.Bytes.Add(uint64(b.Bytes))
	if fs := v.flows.Load(); fs != nil {
		fs.Update(r.Flow, uint64(b.Packets), uint64(b.Bytes))
	}
	v.CountRx(b)
	v.CountTx(b)
}

// DropUnmatched records a policy drop.
func (v *VSwitch) DropUnmatched(b Batch) {
	v.CountRx(b)
	v.CountDrop(b)
}

// Rules returns the flow table sorted by flow ID (for the OVS channel
// adapter and tests).
func (v *VSwitch) Rules() []*Rule {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]*Rule, 0, len(v.rules))
	for _, r := range v.rules {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Flow < out[j].Flow })
	return out
}
