// Package core defines the shared vocabulary of the PerfSight framework:
// element identities, the unified statistics record format exchanged between
// elements, agents, the controller and diagnostic applications, and the
// attribute names of the counters the paper's instrumentation exposes.
//
// The paper (§4.2) specifies that an agent answers a query with
//
//	<TimeStamp, Element, (attr1, value1), (attr2, value2), ...>
//
// Record is exactly that message. Everything above the element layer —
// agent, wire protocol, controller, diagnosis — speaks only this format,
// which is what decouples statistics collection from analytics (§3).
package core

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"
)

// TenantID names a tenant whose virtual cluster spans one or more machines.
type TenantID string

// MachineID names a physical server in the cloud.
type MachineID string

// VMID names a virtual machine on some physical server.
type VMID string

// ElementID uniquely names a software-dataplane element. IDs are
// hierarchical, slash-separated paths:
//
//	m0/pnic                  an element of machine m0's virtualization stack
//	m0/cpu3/backlog          a per-core element
//	m0/vm2/tun               the host-side TUN serving VM vm2
//	m0/vm2/guest/socket      an element inside vm2's guest OS
//	m0/vm2/app               the middlebox software in vm2
type ElementID string

// Machine returns the machine component of the element path.
func (e ElementID) Machine() MachineID {
	s := string(e)
	if i := strings.IndexByte(s, '/'); i >= 0 {
		return MachineID(s[:i])
	}
	return MachineID(s)
}

// VM returns the VM component of the element path, or "" if the element
// belongs to the shared virtualization stack. It scans with IndexByte
// instead of splitting, so the hot diagnosis paths that group records by
// VM never allocate here.
func (e ElementID) VM() VMID {
	s := string(e)
	i := strings.IndexByte(s, '/')
	if i < 0 {
		return ""
	}
	rest := s[i+1:]
	j := strings.IndexByte(rest, '/')
	if j < 0 {
		return "" // two components: machine/element, no VM in the path
	}
	seg := rest[:j]
	if len(seg) >= 2 && seg[0] == 'v' && seg[1] == 'm' {
		return VMID(seg)
	}
	return ""
}

// Leaf returns the last path component (the element's local name).
func (e ElementID) Leaf() string {
	s := string(e)
	if i := strings.LastIndexByte(s, '/'); i >= 0 {
		return s[i+1:]
	}
	return s
}

// ElementKind classifies dataplane elements. The kinds follow Figure 5 of
// the paper: the virtualization-stack elements shared by all VMs on a
// machine, and the per-VM elements of the software middlebox.
type ElementKind int

const (
	KindUnknown ElementKind = iota

	// Virtualization stack (shared by all VMs on the machine).
	KindPNIC         // physical NIC (DMA ring)
	KindPNICDriver   // interrupt handler: pNIC ring -> pCPU backlog
	KindPCPUBacklog  // per-core backlog queue (netdev_max_backlog)
	KindNAPIRoutine  // softirq: backlog -> virtual switch frame handler
	KindVSwitch      // Open vSwitch datapath with per-rule statistics
	KindTUN          // TAP/TUN socket queue feeding one VM
	KindHypervisorIO // QEMU I/O handler: TUN <-> vNIC

	// Software middlebox (confined to one VM).
	KindVNIC        // virtual NIC ring
	KindVNICDriver  // guest interrupt handler: vNIC -> vCPU backlog
	KindVCPUBacklog // guest per-core backlog queue
	KindGuestNAPI   // guest softirq: vCPU backlog -> guest socket
	KindGuestSocket // guest kernel socket buffer
	KindMiddlebox   // the middlebox software itself
)

var kindNames = map[ElementKind]string{
	KindUnknown:      "unknown",
	KindPNIC:         "pnic",
	KindPNICDriver:   "pnic_driver",
	KindPCPUBacklog:  "pcpu_backlog",
	KindNAPIRoutine:  "napi",
	KindVSwitch:      "vswitch",
	KindTUN:          "tun",
	KindHypervisorIO: "hypervisor_io",
	KindVNIC:         "vnic",
	KindVNICDriver:   "vnic_driver",
	KindVCPUBacklog:  "vcpu_backlog",
	KindGuestNAPI:    "guest_napi",
	KindGuestSocket:  "guest_socket",
	KindMiddlebox:    "middlebox",
}

func (k ElementKind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// InVirtualizationStack reports whether elements of this kind are shared by
// multiple VMs (§2.1 category (a)) as opposed to confined to one middlebox
// VM (category (b)).
func (k ElementKind) InVirtualizationStack() bool {
	switch k {
	case KindPNIC, KindPNICDriver, KindPCPUBacklog, KindNAPIRoutine,
		KindVSwitch, KindTUN, KindHypervisorIO:
		return true
	}
	return false
}

// kindByName inverts kindNames once at init so KindFromString is a map
// lookup instead of a per-call iteration.
var kindByName = func() map[string]ElementKind {
	m := make(map[string]ElementKind, len(kindNames))
	for k, name := range kindNames {
		m[name] = k
	}
	return m
}()

// KindFromString parses the string form produced by ElementKind.String.
func KindFromString(s string) ElementKind {
	if k, ok := kindByName[s]; ok {
		return k
	}
	return KindUnknown
}

// Attr is one (attribute, value) pair of a statistics record. Attributes
// are identified by compact AttrIDs in memory; the JSON form keeps the
// paper's named pairs — see MarshalJSON.
type Attr struct {
	ID    AttrID
	Value float64
	// Payload carries the encoded summary of a SemSketch attribute (a
	// count-min sketch + top-k blob); nil for ordinary scalar attributes.
	// Value then holds the summary epoch, so delta codecs and change
	// detectors that compare Values alone still notice a new summary.
	Payload []byte
}

// NamedAttr builds an Attr from an attribute name, registering unknown
// names as extension attributes. Dynamic producers (per-flow OVS rule
// counters, custom middlebox statistics) use it; static snapshot paths use
// the schema IDs directly.
func NamedAttr(name string, value float64) Attr {
	return Attr{ID: AttrIDFor(name), Value: value}
}

// Name returns the attribute's canonical name.
func (a Attr) Name() string { return AttrName(a.ID) }

// attrJSON is the JSON shape of Attr — the §4.2 named pair. It must stay
// byte-identical to the pre-AttrID encoding for payload-free attrs
// (internal/compat pins it); Payload rides as an extra base64 field only
// when present, so every pre-sketch record is unchanged on the wire.
type attrJSON struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Payload []byte  `json:"payload,omitempty"`
}

// MarshalJSON emits the named-pair form, so /history, /metrics consumers
// and v1-codec peers see attribute names, never numeric IDs.
func (a Attr) MarshalJSON() ([]byte, error) {
	return json.Marshal(attrJSON{Name: AttrName(a.ID), Value: a.Value, Payload: a.Payload})
}

// UnmarshalJSON resolves the wire name to an AttrID, auto-registering
// unknown names as extension attributes so records from old (or newer)
// peers round-trip without losing attributes.
func (a *Attr) UnmarshalJSON(b []byte) error {
	var aj attrJSON
	if err := json.Unmarshal(b, &aj); err != nil {
		return err
	}
	a.ID = AttrIDFor(aj.Name)
	a.Value = aj.Value
	if len(aj.Payload) > 0 {
		a.Payload = aj.Payload
	} else {
		a.Payload = nil
	}
	return nil
}

// Record is the unified statistics message format (§4.2):
// a timestamp, the element it describes, and its counter values.
type Record struct {
	// Timestamp is virtual nanoseconds since scenario start for simulated
	// elements, or wall-clock UnixNano for live agents.
	Timestamp int64     `json:"ts"`
	Element   ElementID `json:"element"`
	Attrs     []Attr    `json:"attrs"`
}

// Get returns the value of the attribute. Snapshot paths emit schema
// attributes in ascending ID order, so the attribute with ID k sits at
// index ≤ k−1: Get probes min(k−1, len−1) and walks backward — O(1) with a
// couple of integer compares on snapshot-shaped records — then sweeps the
// indexes after the probe so arbitrarily ordered records stay correct.
func (r Record) Get(id AttrID) (float64, bool) {
	n := len(r.Attrs)
	if n == 0 || id == AttrInvalid {
		return 0, false
	}
	probe := int(id) - 1
	if probe >= n {
		probe = n - 1
	}
	for i := probe; i >= 0; i-- {
		if r.Attrs[i].ID == id {
			return r.Attrs[i].Value, true
		}
	}
	for i := probe + 1; i < n; i++ {
		if r.Attrs[i].ID == id {
			return r.Attrs[i].Value, true
		}
	}
	return 0, false
}

// GetAttr returns the whole attribute — value and payload — for id.
// Payload-carrying attrs (SemSketch) need this; Get returns only the
// numeric value.
func (r Record) GetAttr(id AttrID) (Attr, bool) {
	for i := range r.Attrs {
		if r.Attrs[i].ID == id {
			return r.Attrs[i], true
		}
	}
	return Attr{}, false
}

// GetOr returns the value of the attribute, or def if absent.
func (r Record) GetOr(id AttrID, def float64) float64 {
	if v, ok := r.Get(id); ok {
		return v
	}
	return def
}

// Set replaces or appends the attribute.
func (r *Record) Set(id AttrID, value float64) {
	for i, a := range r.Attrs {
		if a.ID == id {
			r.Attrs[i].Value = value
			return
		}
	}
	r.Attrs = append(r.Attrs, Attr{ID: id, Value: value})
}

// Kind returns the element kind carried in the record, if any.
func (r Record) Kind() ElementKind {
	v, ok := r.Get(AttrKind)
	if !ok {
		return KindUnknown
	}
	return ElementKind(int(v))
}

// Sub returns a record holding r's counters minus prev's, with r's
// timestamp. Non-counter attributes (kind, capacity, queue state) keep r's
// value. It is the building block of the interval statistics in Figure 6
// (GetThroughput, GetPktLoss, GetAvgPktSize all difference two snapshots).
func (r Record) Sub(prev Record) Record {
	return r.SubInto(prev, make([]Attr, 0, len(r.Attrs)))
}

// SubInto is Sub writing its attributes into dst's storage (dst is
// truncated first). Hot loops pass a scratch slice to difference snapshots
// without allocating; with enough capacity it performs zero allocations.
func (r Record) SubInto(prev Record, dst []Attr) Record {
	out := Record{Timestamp: r.Timestamp, Element: r.Element, Attrs: dst[:0]}
	for _, a := range r.Attrs {
		if isMonotonic(a.ID) {
			if pv, ok := prev.Get(a.ID); ok {
				a.Value -= pv
			}
		}
		// a is a copy, so Payload (sketch summaries are not differenced)
		// and non-counter values pass through unchanged.
		out.Attrs = append(out.Attrs, a)
	}
	return out
}

// Interval returns the time spanned by the two records.
func (r Record) Interval(prev Record) time.Duration {
	return time.Duration(r.Timestamp - prev.Timestamp)
}

func (r Record) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "<%d, %s", r.Timestamp, r.Element)
	for _, a := range r.Attrs {
		fmt.Fprintf(&b, ", (%s, %g)", AttrName(a.ID), a.Value)
	}
	b.WriteString(">")
	return b.String()
}

// Element is the abstraction at the heart of PerfSight (§4.1): a logical
// unit on the software datapath that reads traffic from, and writes traffic
// to, its neighbours via buffers or function calls, and that exposes the
// instrumented counters as a Record snapshot.
type Element interface {
	ID() ElementID
	Kind() ElementKind
	// Snapshot returns the element's counters at the given timestamp.
	// Implementations must be safe for concurrent use with the datapath.
	Snapshot(ts int64) Record
}

// Topology describes where every element of every tenant's virtual network
// lives — the controller's vNet[tenantID].elem[elementID] map (§4.3).
type Topology struct {
	Tenants map[TenantID]*VirtualNet `json:"tenants"`
}

// VirtualNet is one tenant's virtual network: its elements, the machine
// hosting each, and the middlebox chain order used by Algorithm 2.
type VirtualNet struct {
	Elements map[ElementID]ElementInfo `json:"elements"`
	// Chains lists the middlebox elements of each service chain in
	// traversal order (source first). Algorithm 2 uses chain order to find
	// a middlebox's predecessors and successors.
	Chains [][]ElementID `json:"chains"`
}

// ElementInfo locates one element and records its static properties.
type ElementInfo struct {
	Machine MachineID   `json:"machine"`
	Kind    ElementKind `json:"kind"`
	// CapacityBps is the element's line rate where meaningful (vNIC, pNIC).
	CapacityBps float64 `json:"capacity_bps,omitempty"`
}

// NewTopology returns an empty topology.
func NewTopology() *Topology {
	return &Topology{Tenants: make(map[TenantID]*VirtualNet)}
}

// Net returns the tenant's virtual network, creating it if needed.
func (t *Topology) Net(id TenantID) *VirtualNet {
	n, ok := t.Tenants[id]
	if !ok {
		n = &VirtualNet{Elements: make(map[ElementID]ElementInfo)}
		t.Tenants[id] = n
	}
	return n
}

// Add registers an element in the tenant's network.
func (n *VirtualNet) Add(id ElementID, info ElementInfo) {
	n.Elements[id] = info
}

// Successors returns the elements after mb in any chain containing it.
//
// In the common case — mb occurs once, in one chain — the result is a
// capacity-clamped subslice of that chain, so Algorithm 2's pruning inner
// loop performs zero allocations. Only when mb appears at several
// positions do the tails get copied into a fresh slice (the full-slice
// expression forces append to copy rather than scribble on the chain).
func (n *VirtualNet) Successors(mb ElementID) []ElementID {
	var out []ElementID
	for _, chain := range n.Chains {
		for i, e := range chain {
			if e != mb {
				continue
			}
			tail := chain[i+1:]
			if len(tail) == 0 {
				continue
			}
			if out == nil {
				out = tail[:len(tail):len(tail)]
			} else {
				out = append(out, tail...)
			}
		}
	}
	return out
}

// Predecessors returns the elements before mb in any chain containing it.
// Like Successors, the single-occurrence case is allocation-free.
func (n *VirtualNet) Predecessors(mb ElementID) []ElementID {
	var out []ElementID
	for _, chain := range n.Chains {
		for i, e := range chain {
			if e != mb {
				continue
			}
			if i == 0 {
				continue
			}
			if out == nil {
				out = chain[:i:i]
			} else {
				out = append(out, chain[:i]...)
			}
		}
	}
	return out
}
