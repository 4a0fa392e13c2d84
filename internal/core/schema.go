package core

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// AttrID is the compact identifier of one statistics attribute. The paper's
// record format names attributes with strings on the wire (§4.2), but every
// layer of this implementation speaks IDs internally: Record lookup, the
// history store's ring keys, wire v2's attribute coding and the diagnosis
// rule matching all index by AttrID, and convert to the canonical name only
// at the JSON/v1 boundary.
//
// The ID space has two regions:
//
//	1..SchemaMax      schema attributes, fixed at compile time, declared in
//	                  schemaDefs. Their numeric order matches the order the
//	                  standard snapshot paths emit them, which is what makes
//	                  Record.Get's dense probe O(1) on snapshot records.
//	AttrExtBase..     extension attributes, registered at runtime (per-flow
//	                  OVS rule counters, size-histogram buckets, middlebox
//	                  custom counters, names learned from old peers).
//	                  Extension IDs are process-local: they are never sent on
//	                  the wire as numbers, only as their names.
//
// The gap between SchemaMax and AttrExtBase is reserved for future schema
// attributes so extension IDs never need to move.
type AttrID uint16

// AttrInvalid is the zero AttrID; no attribute uses it.
const AttrInvalid AttrID = 0

// Schema attribute IDs (§4.1's counters plus static configuration and the
// host gauges). The declaration order is the order the snapshot paths emit
// attributes, so IDs within one record ascend.
const (
	AttrKind AttrID = iota + 1 // element kind (value: ElementKind as float)
	AttrType                   // 1.0 if the element is a middlebox

	// Packet/byte counters, receive and transmit side.
	AttrRxPackets
	AttrRxBytes
	AttrTxPackets
	AttrTxBytes

	// Drop counters. Drops are attributed to the element whose enqueue or
	// processing branch discarded the packet (§4.1: "possible code branches
	// that might drop it").
	AttrDropPackets
	AttrDropBytes

	// Static configuration: vNIC / pNIC line rate.
	AttrCapacityBps

	// Occupancy of the element's buffer, if it has one.
	AttrQueueLen
	AttrQueueCap

	// I/O time counters (§5.2): bytes moved by the input/output methods and
	// the time those methods spent (block time + memory-copy time), in
	// nanoseconds of virtual time.
	AttrInBytes
	AttrInTimeNS
	AttrOutBytes
	AttrOutTimeNS

	// Machine-level utilization gauges, published by the per-machine host
	// pseudo-element. Algorithm 1's rule book consults them to disambiguate
	// symptoms that share a drop location (§5.1).
	AttrCPUUtil
	AttrMembusUtil
	AttrMemBytes // cumulative memory-hog bytes moved

	// SchemaMax is the highest schema AttrID. Wire v2 encodes IDs in
	// 1..SchemaMax as a single byte; anything above travels by name.
	SchemaMax AttrID = iota
)

// AttrExtBase is the first extension AttrID. IDs in (SchemaMax,
// AttrExtBase) are reserved for future schema growth.
const AttrExtBase AttrID = 64

// maxExtAttrs bounds the extension registry so hostile input (a peer
// streaming unique attribute names) cannot grow it without limit.
const maxExtAttrs = 16384

// AttrSemantics classifies how an attribute's value evolves; Record.Sub
// differences counters and passes gauges/config through unchanged.
type AttrSemantics uint8

const (
	// SemGauge values go up and down (queue occupancy, utilization).
	SemGauge AttrSemantics = iota
	// SemCounter values increase monotonically (packet/byte/time counters).
	SemCounter
	// SemConfig values are static configuration (kind, type, capacity).
	SemConfig
	// SemSketch attributes carry an encoded summary blob in Attr.Payload
	// (count-min sketch + heavy-hitter top-k); the numeric Value is the
	// summary's epoch, which advances whenever the summary content
	// changes. Sub passes sketch attrs through undifferenced.
	SemSketch
)

func (s AttrSemantics) String() string {
	switch s {
	case SemCounter:
		return "counter"
	case SemConfig:
		return "config"
	case SemSketch:
		return "sketch"
	}
	return "gauge"
}

// AttrDef declares one attribute of the statistics schema: its ID, its
// canonical wire/JSON name, how its value evolves, and its unit.
type AttrDef struct {
	ID        AttrID
	Name      string
	Semantics AttrSemantics
	Unit      string
}

// schemaDefs is the central schema registry, indexed by AttrID.
var schemaDefs = [SchemaMax + 1]AttrDef{
	AttrKind:        {AttrKind, "kind", SemConfig, "enum"},
	AttrType:        {AttrType, "type", SemConfig, "flag"},
	AttrRxPackets:   {AttrRxPackets, "rx_packets", SemCounter, "packets"},
	AttrRxBytes:     {AttrRxBytes, "rx_bytes", SemCounter, "bytes"},
	AttrTxPackets:   {AttrTxPackets, "tx_packets", SemCounter, "packets"},
	AttrTxBytes:     {AttrTxBytes, "tx_bytes", SemCounter, "bytes"},
	AttrDropPackets: {AttrDropPackets, "drop_packets", SemCounter, "packets"},
	AttrDropBytes:   {AttrDropBytes, "drop_bytes", SemCounter, "bytes"},
	AttrCapacityBps: {AttrCapacityBps, "capacity_bps", SemConfig, "bps"},
	AttrQueueLen:    {AttrQueueLen, "queue_len", SemGauge, "packets"},
	AttrQueueCap:    {AttrQueueCap, "queue_cap", SemConfig, "packets"},
	AttrInBytes:     {AttrInBytes, "in_bytes", SemCounter, "bytes"},
	AttrInTimeNS:    {AttrInTimeNS, "in_time_ns", SemCounter, "ns"},
	AttrOutBytes:    {AttrOutBytes, "out_bytes", SemCounter, "bytes"},
	AttrOutTimeNS:   {AttrOutTimeNS, "out_time_ns", SemCounter, "ns"},
	AttrCPUUtil:     {AttrCPUUtil, "cpu_util", SemGauge, "fraction"},
	AttrMembusUtil:  {AttrMembusUtil, "membus_util", SemGauge, "fraction"},
	// AttrMemBytes is deliberately a gauge: the memory-hog experiment reads
	// the cumulative value directly, so Sub must not difference it.
	AttrMemBytes: {AttrMemBytes, "mem_bytes", SemGauge, "bytes"},
}

// schemaByName maps canonical names back to schema IDs, built once at init.
var schemaByName = func() map[string]AttrID {
	m := make(map[string]AttrID, SchemaMax)
	for id := AttrID(1); id <= SchemaMax; id++ {
		m[schemaDefs[id].Name] = id
	}
	return m
}()

// monotonicSchema is the Record.Sub fast path: true for schema counters.
var monotonicSchema = func() [SchemaMax + 1]bool {
	var t [SchemaMax + 1]bool
	for id := AttrID(1); id <= SchemaMax; id++ {
		t[id] = schemaDefs[id].Semantics == SemCounter
	}
	return t
}()

// extTable is the immutable snapshot of the extension-attribute registry.
// Readers load it atomically; writers copy, extend, and swap under extMu.
type extTable struct {
	byName map[string]AttrID
	defs   []AttrDef // defs[i] has ID AttrExtBase+i
}

var (
	extMu  sync.Mutex
	extCur atomic.Pointer[extTable]

	// extRejected counts RegisterAttr calls refused because the extension
	// registry hit maxExtAttrs. Before this counter existed, cap
	// exhaustion was invisible: AttrIDFor silently dropped the attribute.
	// Telemetry surfaces it as perfsight_schema_ext_rejected_total.
	extRejected atomic.Uint64
)

// FlowSketchAttrName is the extension attribute carrying an element's
// encoded per-flow summary (count-min sketch + heavy-hitter top-k).
// Attr.Payload holds the blob; Attr.Value holds the summary epoch.
const FlowSketchAttrName = "flow_sketch"

// attrFlowSketch is registered eagerly in init so every layer — including
// wire decoders that resolve attrs by name via AttrIDFor, which would
// otherwise default the name to SemGauge — sees SemSketch semantics
// regardless of initialization order.
var attrFlowSketch AttrID

func init() {
	extCur.Store(&extTable{byName: map[string]AttrID{}})
	attrFlowSketch, _ = RegisterAttr(FlowSketchAttrName, SemSketch, "blob")
}

// SketchAttrID returns the AttrID of the flow_sketch summary attribute.
func SketchAttrID() AttrID { return attrFlowSketch }

// RegisterAttr registers a runtime extension attribute (a middlebox-specific
// counter, a per-flow statistic) and returns its process-local AttrID.
// Registering a name that already exists — schema or extension — returns the
// existing ID; the declared semantics and unit then apply only if the name
// was new. It fails once maxExtAttrs distinct extension names exist.
func RegisterAttr(name string, sem AttrSemantics, unit string) (AttrID, error) {
	if id, ok := LookupAttr(name); ok {
		return id, nil
	}
	extMu.Lock()
	defer extMu.Unlock()
	cur := extCur.Load()
	if id, ok := cur.byName[name]; ok {
		return id, nil
	}
	if len(cur.defs) >= maxExtAttrs {
		extRejected.Add(1)
		return AttrInvalid, fmt.Errorf("core: extension attribute registry full (%d attrs), cannot register %q", maxExtAttrs, name)
	}
	id := AttrExtBase + AttrID(len(cur.defs))
	next := &extTable{
		byName: make(map[string]AttrID, len(cur.byName)+1),
		defs:   make([]AttrDef, len(cur.defs), len(cur.defs)+1),
	}
	for k, v := range cur.byName {
		next.byName[k] = v
	}
	copy(next.defs, cur.defs)
	next.byName[name] = id
	next.defs = append(next.defs, AttrDef{ID: id, Name: name, Semantics: sem, Unit: unit})
	extCur.Store(next)
	return id, nil
}

// LookupAttr resolves an attribute name to its ID without registering
// anything. It is what boundary code (HTTP query params, wire attr filters)
// uses: an unknown name simply cannot match any record.
func LookupAttr(name string) (AttrID, bool) {
	if id, ok := schemaByName[name]; ok {
		return id, true
	}
	if id, ok := extCur.Load().byName[name]; ok {
		return id, true
	}
	return AttrInvalid, false
}

// AttrIDFor resolves a name to an ID, auto-registering unknown names as
// extension gauges. Decode paths use it so attributes from old peers (or
// future schemas) survive with their name intact. When the extension
// registry is full it returns AttrInvalid — the one case a name is dropped,
// bounded by maxExtAttrs.
func AttrIDFor(name string) AttrID {
	if id, ok := LookupAttr(name); ok {
		return id
	}
	id, err := RegisterAttr(name, SemGauge, "")
	if err != nil {
		return AttrInvalid
	}
	return id
}

// AttrName returns the canonical name of an attribute — the string the JSON
// surface and the v1 codec emit.
func AttrName(id AttrID) string {
	if id >= 1 && id <= SchemaMax {
		return schemaDefs[id].Name
	}
	if id >= AttrExtBase {
		ext := extCur.Load()
		if i := int(id - AttrExtBase); i < len(ext.defs) {
			return ext.defs[i].Name
		}
	}
	return fmt.Sprintf("attr(%d)", uint16(id))
}

// AttrSemanticsOf returns how the attribute's value evolves. Unknown IDs
// are gauges.
func AttrSemanticsOf(id AttrID) AttrSemantics {
	if id >= 1 && id <= SchemaMax {
		return schemaDefs[id].Semantics
	}
	if id >= AttrExtBase {
		ext := extCur.Load()
		if i := int(id - AttrExtBase); i < len(ext.defs) {
			return ext.defs[i].Semantics
		}
	}
	return SemGauge
}

// IsSchemaAttr reports whether id is a compile-time schema attribute —
// the set wire v2 may encode as a bare 1-byte ID.
func IsSchemaAttr(id AttrID) bool { return id >= 1 && id <= SchemaMax }

// ExtAttrCount returns how many extension attributes are registered, and
// ExtRejected how many registrations the maxExtAttrs cap has refused.
// Both feed /healthz so an operator can see a tenant mix approaching (or
// blowing through) the registry cap instead of silently losing names.
func ExtAttrCount() int { return len(extCur.Load().defs) }

// ExtRejected returns the number of extension registrations refused at
// the registry cap since process start.
func ExtRejected() uint64 { return extRejected.Load() }

// SchemaAttrs returns a copy of the schema attribute definitions.
func SchemaAttrs() []AttrDef {
	out := make([]AttrDef, 0, SchemaMax)
	for id := AttrID(1); id <= SchemaMax; id++ {
		out = append(out, schemaDefs[id])
	}
	return out
}

// isMonotonic reports whether the attribute is a monotonically increasing
// counter (as opposed to a gauge or static configuration value).
func isMonotonic(id AttrID) bool {
	if id <= SchemaMax {
		return monotonicSchema[id]
	}
	return AttrSemanticsOf(id) == SemCounter
}
