package core

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"
	"testing"
	"testing/quick"
)

// TestSchemaNameIDBijection: the schema's name↔ID mapping must be a
// bijection — every schema ID has a unique canonical name, the name
// resolves back to the same ID, and the ID space 1..SchemaMax is dense.
func TestSchemaNameIDBijection(t *testing.T) {
	defs := SchemaAttrs()
	if len(defs) != int(SchemaMax) {
		t.Fatalf("SchemaAttrs returned %d defs; want %d", len(defs), SchemaMax)
	}
	seenNames := make(map[string]AttrID)
	for i, def := range defs {
		if def.ID != AttrID(i+1) {
			t.Fatalf("schema IDs not dense: defs[%d].ID = %d", i, def.ID)
		}
		if def.Name == "" {
			t.Fatalf("schema attr %d has no name", def.ID)
		}
		if prev, dup := seenNames[def.Name]; dup {
			t.Fatalf("name %q maps to both %d and %d", def.Name, prev, def.ID)
		}
		seenNames[def.Name] = def.ID
		if got := AttrName(def.ID); got != def.Name {
			t.Fatalf("AttrName(%d) = %q; want %q", def.ID, got, def.Name)
		}
		id, ok := LookupAttr(def.Name)
		if !ok || id != def.ID {
			t.Fatalf("LookupAttr(%q) = %d,%v; want %d", def.Name, id, ok, def.ID)
		}
		if !IsSchemaAttr(def.ID) {
			t.Fatalf("IsSchemaAttr(%d) = false", def.ID)
		}
	}
	if IsSchemaAttr(AttrInvalid) || IsSchemaAttr(SchemaMax+1) || IsSchemaAttr(AttrExtBase) {
		t.Fatal("IsSchemaAttr accepts non-schema IDs")
	}
	if SchemaMax >= AttrExtBase {
		t.Fatalf("schema region %d overlaps extension base %d", SchemaMax, AttrExtBase)
	}
}

// TestSchemaSemanticsMatchSub: Sub must difference exactly the counters
// the schema declares, preserving the behavior the pre-schema switch had.
func TestSchemaSemanticsMatchSub(t *testing.T) {
	counters := map[AttrID]bool{
		AttrRxPackets: true, AttrRxBytes: true, AttrTxPackets: true,
		AttrTxBytes: true, AttrDropPackets: true, AttrDropBytes: true,
		AttrInBytes: true, AttrInTimeNS: true, AttrOutBytes: true, AttrOutTimeNS: true,
	}
	for _, def := range SchemaAttrs() {
		want := counters[def.ID]
		if got := def.Semantics == SemCounter; got != want {
			t.Errorf("%s: counter = %v; want %v", def.Name, got, want)
		}
		if got := isMonotonic(def.ID); got != want {
			t.Errorf("isMonotonic(%s) = %v; want %v", def.Name, got, want)
		}
	}
}

// TestExtensionRegistration covers the runtime-registered attribute space:
// new names land at or above AttrExtBase, registration is idempotent,
// schema names are never shadowed, and declared semantics drive Sub.
func TestExtensionRegistration(t *testing.T) {
	id, err := RegisterAttr("test_ext_counter", SemCounter, "bytes")
	if err != nil {
		t.Fatal(err)
	}
	if id < AttrExtBase {
		t.Fatalf("extension ID %d below AttrExtBase %d", id, AttrExtBase)
	}
	if again, _ := RegisterAttr("test_ext_counter", SemGauge, ""); again != id {
		t.Fatalf("re-registration moved the ID: %d != %d", again, id)
	}
	if AttrSemanticsOf(id) != SemCounter {
		t.Fatal("re-registration overwrote the original semantics")
	}
	if AttrName(id) != "test_ext_counter" {
		t.Fatalf("AttrName(%d) = %q", id, AttrName(id))
	}
	if sid, _ := RegisterAttr("rx_bytes", SemGauge, ""); sid != AttrRxBytes {
		t.Fatalf("registering a schema name returned %d; want %d", sid, AttrRxBytes)
	}

	// A counter extension is differenced by Sub; an auto-registered
	// (gauge) extension is passed through — same as unknown names before.
	gaugeID := AttrIDFor("test_ext_gauge")
	prev := Record{Timestamp: 1, Element: "e", Attrs: []Attr{{ID: id, Value: 100}, {ID: gaugeID, Value: 100}}}
	cur := Record{Timestamp: 2, Element: "e", Attrs: []Attr{{ID: id, Value: 150}, {ID: gaugeID, Value: 150}}}
	d := cur.Sub(prev)
	if v, _ := d.Get(id); v != 50 {
		t.Fatalf("counter ext delta = %v; want 50", v)
	}
	if v, _ := d.Get(gaugeID); v != 150 {
		t.Fatalf("gauge ext delta = %v; want 150 (pass-through)", v)
	}
}

// TestAttrNameRoundTripProperty: for arbitrary attribute names — including
// ones no schema ever declared — resolving to an ID and back must preserve
// the name exactly (the "no data loss from old agents" guarantee), and the
// JSON form must round-trip value and identity.
func TestAttrNameRoundTripProperty(t *testing.T) {
	prop := func(name string, value float64) bool {
		if name == "" {
			name = "empty"
		}
		id := AttrIDFor(name)
		if id == AttrInvalid {
			return false
		}
		if AttrName(id) != name {
			return false
		}
		b, err := json.Marshal(Attr{ID: id, Value: value})
		if err != nil {
			return false
		}
		var back Attr
		if err := json.Unmarshal(b, &back); err != nil {
			return false
		}
		return back.ID == id && (back.Value == value || back.Value != back.Value && value != value)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAttrRegistryConcurrent hammers the copy-on-write registry from many
// goroutines (meaningful under -race): concurrent AttrIDFor calls for the
// same name must agree, and readers must never see a torn table.
func TestAttrRegistryConcurrent(t *testing.T) {
	const workers = 8
	var wg sync.WaitGroup
	ids := make([][16]AttrID, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 16; i++ {
				ids[w][i] = AttrIDFor(fmt.Sprintf("conc_attr_%d", i))
				_ = AttrName(ids[w][i])
				_, _ = LookupAttr("rx_bytes")
			}
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if ids[w] != ids[0] {
			t.Fatalf("worker %d saw different IDs: %v vs %v", w, ids[w], ids[0])
		}
	}
}

// TestRegisterAttrCap drives the extension registry to maxExtAttrs and
// verifies cap behavior: new names are refused with an error, the
// rejection counter (the perfsight_schema_ext_rejected_total feed) ticks,
// AttrIDFor degrades to AttrInvalid without panicking, and names already
// in the table keep resolving. The full table is swapped in and restored
// white-box so the process-global registry is not poisoned for other
// tests.
func TestRegisterAttrCap(t *testing.T) {
	full := &extTable{
		byName: make(map[string]AttrID, maxExtAttrs),
		defs:   make([]AttrDef, maxExtAttrs),
	}
	for i := range full.defs {
		id := AttrExtBase + AttrID(i)
		name := "cap_fill_" + strconv.Itoa(i)
		full.defs[i] = AttrDef{ID: id, Name: name, Semantics: SemGauge}
		full.byName[name] = id
	}
	extMu.Lock()
	saved := extCur.Load()
	extCur.Store(full)
	extMu.Unlock()
	defer func() {
		extMu.Lock()
		extCur.Store(saved)
		extMu.Unlock()
	}()

	if got := ExtAttrCount(); got != maxExtAttrs {
		t.Fatalf("ExtAttrCount = %d; want %d", got, maxExtAttrs)
	}
	before := ExtRejected()
	id, err := RegisterAttr("cap_overflow_attr", SemCounter, "bytes")
	if err == nil {
		t.Fatal("RegisterAttr succeeded past the cap")
	}
	if id != AttrInvalid {
		t.Fatalf("rejected registration returned ID %d; want AttrInvalid", id)
	}
	if got := ExtRejected(); got != before+1 {
		t.Fatalf("ExtRejected = %d after one rejection; want %d", got, before+1)
	}
	if got := AttrIDFor("cap_overflow_other"); got != AttrInvalid {
		t.Fatalf("AttrIDFor past the cap = %d; want AttrInvalid", got)
	}
	if got := ExtRejected(); got != before+2 {
		t.Fatalf("ExtRejected = %d after two rejections; want %d", got, before+2)
	}

	// Names already in the table — extension or schema — are unaffected.
	if got, ok := LookupAttr("cap_fill_0"); !ok || got != AttrExtBase {
		t.Fatalf("LookupAttr(cap_fill_0) = %d,%v; want %d,true", got, ok, AttrExtBase)
	}
	if again, err := RegisterAttr("cap_fill_7", SemCounter, ""); err != nil || again != AttrExtBase+7 {
		t.Fatalf("re-registering an existing name at the cap: %d, %v", again, err)
	}
	if sid, err := RegisterAttr("rx_bytes", SemGauge, ""); err != nil || sid != AttrRxBytes {
		t.Fatalf("schema name at the cap: %d, %v", sid, err)
	}
}

// snapshotShapedRecord mirrors a dataplane element snapshot: schema attrs
// in ascending ID order, the shape Record.Get's dense probe is built for.
func snapshotShapedRecord() Record {
	return Record{Timestamp: 1e9, Element: "m0/pnic", Attrs: []Attr{
		{ID: AttrKind, Value: 1},
		{ID: AttrRxPackets, Value: 1e6}, {ID: AttrRxBytes, Value: 1.5e9},
		{ID: AttrTxPackets, Value: 9e5}, {ID: AttrTxBytes, Value: 1.2e9},
		{ID: AttrDropPackets, Value: 100}, {ID: AttrDropBytes, Value: 15e4},
		{ID: AttrCapacityBps, Value: 1e10},
	}}
}

// TestRecordGetUnsortedAttrs: the dense probe is an optimization, not a
// requirement — records with arbitrary attr order (old peers, hand-built
// tests) must still resolve every attribute.
func TestRecordGetUnsortedAttrs(t *testing.T) {
	r := Record{Element: "e", Attrs: []Attr{
		{ID: AttrCapacityBps, Value: 4},
		{ID: AttrIDFor("zzz_ext"), Value: 5},
		{ID: AttrKind, Value: 6},
		{ID: AttrDropPackets, Value: 7},
	}}
	for _, tc := range []struct {
		id   AttrID
		want float64
	}{{AttrCapacityBps, 4}, {AttrIDFor("zzz_ext"), 5}, {AttrKind, 6}, {AttrDropPackets, 7}} {
		if v, ok := r.Get(tc.id); !ok || v != tc.want {
			t.Fatalf("Get(%s) = %v,%v; want %v", AttrName(tc.id), v, ok, tc.want)
		}
	}
	if _, ok := r.Get(AttrRxBytes); ok {
		t.Fatal("absent attr found")
	}
}

// TestRecordAllocBudget pins Record.Get and the buffer-reusing
// Record.SubInto at their measured allocs/op (zero — these run in the
// diagnosis and history inner loops once per element per sweep).
func TestRecordAllocBudget(t *testing.T) {
	const budget = 0
	cur := snapshotShapedRecord()
	prev := snapshotShapedRecord()
	prev.Timestamp = 0

	getAllocs := testing.AllocsPerRun(100, func() {
		if _, ok := cur.Get(AttrDropPackets); !ok {
			t.Fatal("lookup failed")
		}
		_ = cur.GetOr(AttrQueueLen, 0) // absent: full-scan path
	})
	scratch := make([]Attr, 0, len(cur.Attrs))
	subAllocs := testing.AllocsPerRun(100, func() {
		d := cur.SubInto(prev, scratch)
		scratch = d.Attrs
	})
	t.Logf("Record.Get allocs/op = %.1f, Record.SubInto allocs/op = %.1f (budget %d)", getAllocs, subAllocs, budget)
	if getAllocs > budget {
		t.Fatalf("Record.Get allocs/op = %.1f exceeds budget %d", getAllocs, budget)
	}
	if subAllocs > budget {
		t.Fatalf("Record.SubInto allocs/op = %.1f exceeds budget %d", subAllocs, budget)
	}
}

// TestSuccessorsAllocFreeSingleChain gates the Algorithm 2 satellite: on a
// single-chain topology Successors/Predecessors return subslices of the
// chain, with zero allocations.
func TestSuccessorsAllocFreeSingleChain(t *testing.T) {
	net := &VirtualNet{Chains: [][]ElementID{{"a", "b", "c", "d"}}}
	if got := testing.AllocsPerRun(100, func() {
		if s := net.Successors("b"); len(s) != 2 {
			t.Fatalf("successors: %v", s)
		}
		if p := net.Predecessors("c"); len(p) != 2 {
			t.Fatalf("predecessors: %v", p)
		}
	}); got != 0 {
		t.Fatalf("single-chain Successors+Predecessors allocs/op = %.1f; want 0", got)
	}
	// The returned subslices must be safe to append to without mutating
	// the underlying chain (capacity-clamped).
	s := net.Successors("b")
	_ = append(s, "x")
	if net.Chains[0][3] != "d" {
		t.Fatal("append to Successors result scribbled on the chain")
	}
}

// --- benchmarks backing the EXPERIMENTS.md "Typed statistics schema" table ---

// namedAttr replicates the pre-schema Attr{Name string, Value float64} so
// the string-scan baseline measures exactly what the old Record.Get did.
type namedAttr struct {
	name  string
	value float64
}

func getByNameScan(attrs []namedAttr, name string) (float64, bool) {
	for _, a := range attrs {
		if a.name == name {
			return a.value, true
		}
	}
	return 0, false
}

func namedCopy(r Record) []namedAttr {
	out := make([]namedAttr, len(r.Attrs))
	for i, a := range r.Attrs {
		out[i] = namedAttr{AttrName(a.ID), a.Value}
	}
	return out
}

func BenchmarkRecordGetID(b *testing.B) {
	r := snapshotShapedRecord()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := r.Get(AttrDropPackets); !ok {
			b.Fatal("missing")
		}
		if _, ok := r.Get(AttrCapacityBps); !ok {
			b.Fatal("missing")
		}
	}
}

func BenchmarkRecordGetStringScanBaseline(b *testing.B) {
	attrs := namedCopy(snapshotShapedRecord())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := getByNameScan(attrs, "drop_packets"); !ok {
			b.Fatal("missing")
		}
		if _, ok := getByNameScan(attrs, "capacity_bps"); !ok {
			b.Fatal("missing")
		}
	}
}

func BenchmarkRecordSubInto(b *testing.B) {
	cur := snapshotShapedRecord()
	prev := snapshotShapedRecord()
	prev.Timestamp = 0
	scratch := make([]Attr, 0, len(cur.Attrs))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		d := cur.SubInto(prev, scratch)
		scratch = d.Attrs
	}
}

// subByNameScan replicates the pre-schema Record.Sub verbatim: allocate
// the output slice, switch on the attribute name for monotonicity, and
// string-scan prev for the matching attribute.
func subByNameScan(cur, prev []namedAttr) []namedAttr {
	out := make([]namedAttr, 0, len(cur))
	mono := func(name string) bool {
		switch name {
		case "rx_packets", "rx_bytes", "tx_packets", "tx_bytes",
			"drop_packets", "drop_bytes",
			"in_bytes", "in_time_ns", "out_bytes", "out_time_ns":
			return true
		}
		return false
	}
	for _, a := range cur {
		v := a.value
		if mono(a.name) {
			if pv, ok := getByNameScan(prev, a.name); ok {
				v -= pv
			}
		}
		out = append(out, namedAttr{a.name, v})
	}
	return out
}

func BenchmarkRecordSubStringScanBaseline(b *testing.B) {
	cur := namedCopy(snapshotShapedRecord())
	prev := namedCopy(snapshotShapedRecord())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = subByNameScan(cur, prev)
	}
}

func BenchmarkSuccessorsSingleChain(b *testing.B) {
	net := &VirtualNet{Chains: [][]ElementID{{"t1/fw", "t1/ids", "t1/proxy", "t1/lb"}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if s := net.Successors("t1/ids"); len(s) != 2 {
			b.Fatal("bad successors")
		}
		if p := net.Predecessors("t1/proxy"); len(p) != 2 {
			b.Fatal("bad predecessors")
		}
	}
}

func BenchmarkKindFromString(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if KindFromString("middlebox") != KindMiddlebox {
			b.Fatal("bad kind")
		}
	}
}
