package wire

import (
	"bytes"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"perfsight/internal/core"
)

// v2SweepResponse builds a representative steady-state sweep response:
// elems elements, each with the same nattrs counter attributes — the
// shape of one machine's answer during a fleet sweep.
func v2SweepResponse(elems, nattrs int, tick int64) *Message {
	m := &Message{Type: TypeResponse, ID: uint64(tick), Machine: "m7", AgentNS: 12345}
	for e := 0; e < elems; e++ {
		rec := core.Record{
			Timestamp: tick*1e9 + int64(e),
			Element:   core.ElementID(fmt.Sprintf("m7/vm%d/vnic", e)),
		}
		for a := 0; a < nattrs; a++ {
			rec.Attrs = append(rec.Attrs, core.NamedAttr(fmt.Sprintf("attr_%d_bytes", a), float64(tick*1000+int64(e*nattrs+a))))
		}
		m.Records = append(m.Records, rec)
	}
	return m
}

func TestV2RoundTripMessageTypes(t *testing.T) {
	msgs := []*Message{
		{Type: TypePing, ID: 1},
		{Type: TypePong, ID: 2, Machine: "m0"},
		{Type: TypeError, ID: 3, Error: "boom"},
		{Type: TypeQuery, ID: 4, TraceID: 99, Query: &Query{All: true}},
		{Type: TypeQuery, ID: 5, Query: &Query{
			Elements: []core.ElementID{"m0/pnic", "m0/vm1/vnic"},
			Attrs:    []string{"rx_bytes", "tx_bytes"},
		}},
		{Type: TypeListElements, ID: 6},
		{Type: TypeElementList, ID: 7, Machine: "m0", Elements: []ElementMeta{
			{ID: "m0/pnic", Kind: core.KindPNIC},
			{ID: "m0/vm1/vnic", Kind: core.KindVNIC},
		}},
		{Type: TypeResponse, ID: 8, Machine: "m0", AgentNS: 42, Error: "partial: x",
			Records: []core.Record{
				{Timestamp: 100, Element: "m0/pnic", Attrs: []core.Attr{
					core.NamedAttr("rx_bytes", 1e12),
					core.NamedAttr("ratio", 0.625),
					core.NamedAttr("neg", -17),
					core.NamedAttr("huge", math.MaxFloat64),
				}},
				{Timestamp: 90, Element: "m0/vm1/vnic"}, // ts goes backwards, no attrs
			}},
		v2SweepResponse(26, 12, 3),
	}
	enc := NewV2Codec(false)
	dec := NewV2Codec(false)
	for _, m := range msgs {
		payload, err := enc.Encode(m)
		if err != nil {
			t.Fatalf("%s: encode: %v", m.Type, err)
		}
		got, err := dec.Decode(payload)
		if err != nil {
			t.Fatalf("%s: decode: %v", m.Type, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("%s round trip:\n got %+v\nwant %+v", m.Type, got, m)
		}
	}
}

// Interned strings shrink repeat frames: the second identical response
// must be much smaller than the first because every element ID and attr
// name became a 1-2 byte table reference.
func TestV2StringInterning(t *testing.T) {
	enc := NewV2Codec(false)
	first, err := enc.Encode(v2SweepResponse(26, 12, 1))
	if err != nil {
		t.Fatal(err)
	}
	n1 := len(first)
	second, err := enc.Encode(v2SweepResponse(26, 12, 2))
	if err != nil {
		t.Fatal(err)
	}
	// Attr names already intern within the first frame (they repeat per
	// record); the second frame also drops the inline element IDs.
	if len(second) >= n1*3/4 {
		t.Fatalf("interning ineffective: first frame %dB, second %dB", n1, len(second))
	}
	third, err := enc.Encode(v2SweepResponse(26, 12, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(third) != len(second) {
		t.Fatalf("steady state not reached: second %dB, third %dB", len(second), len(third))
	}
	// And the decoder tracks the same table.
	dec := NewV2Codec(false)
	if _, err := dec.Decode(mustEncode(t, NewV2Codec(false), v2SweepResponse(2, 2, 1))); err != nil {
		t.Fatal(err)
	}
}

func mustEncode(t *testing.T, c *V2Codec, m *Message) []byte {
	t.Helper()
	b, err := c.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// Delta sessions resend only changed attrs, and the decoder's merged
// records must equal what a full encoding would have carried.
func TestV2DeltaRoundTrip(t *testing.T) {
	enc := NewV2Codec(true)
	dec := NewV2Codec(true)

	roundTrip := func(tick int64) *Message {
		t.Helper()
		m := v2SweepResponse(4, 6, tick)
		payload, err := enc.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := dec.Decode(payload)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("tick %d:\n got %+v\nwant %+v", tick, got, m)
		}
		return got
	}

	first := roundTrip(1)
	second := roundTrip(2)
	// Decoded records own their storage: the merge base mutates every
	// frame, the returned records must not.
	if v := first.Records[0].Attrs[0].Value; v != 1000 {
		t.Fatalf("first sweep mutated by second: %v", v)
	}
	if v := second.Records[0].Attrs[0].Value; v != 2000 {
		t.Fatalf("second sweep: %v", v)
	}

	// A quiet element (no changed values) costs only a few bytes.
	quiet := &Message{Type: TypeResponse, ID: 9, Machine: "m7",
		Records: []core.Record{{Timestamp: 5, Element: "m7/pnic", Attrs: []core.Attr{
			core.NamedAttr("rx_bytes", 100), core.NamedAttr("tx_bytes", 200)}}}}
	if _, err := dec.Decode(mustEncode(t, enc, quiet)); err != nil {
		t.Fatal(err)
	}
	sizeBefore := len(mustEncode(t, enc, quiet))
	got, err := dec.Decode(mustEncode(t, enc, quiet))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records, quiet.Records) {
		t.Fatalf("quiet delta: %+v", got.Records)
	}
	if sizeBefore > 16 {
		t.Fatalf("quiet delta record cost %dB; want a handful", sizeBefore)
	}

	// Changing the attribute set falls back to a full record.
	quiet.Records[0].Attrs = append(quiet.Records[0].Attrs, core.NamedAttr("drops", 1))
	got, err = dec.Decode(mustEncode(t, enc, quiet))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records, quiet.Records) {
		t.Fatalf("attr-set change: %+v", got.Records)
	}
}

// TestV2SketchPayloadRoundTrip: a payload-carrying attr (tag 3, the
// flow_sketch blob) survives full-record coding byte-for-byte, and on a
// delta session the blob is resent only when its epoch (the attr value)
// changes — a quiescent sketch costs a few bytes per frame, not the blob.
func TestV2SketchPayloadRoundTrip(t *testing.T) {
	blob := []byte{'F', 'K', 1, 16, 2, 1, 4, 7, 0, 0, 0, 0}
	msg := func(epoch float64, blob []byte) *Message {
		return &Message{Type: TypeResponse, ID: 1, Machine: "m0",
			Records: []core.Record{{Timestamp: int64(epoch), Element: "m0/vswitch", Attrs: []core.Attr{
				{ID: core.AttrRxPackets, Value: 100 * epoch},
				{ID: core.SketchAttrID(), Value: epoch, Payload: blob},
			}}}}
	}

	// Stateless session: exact round trip including the payload bytes.
	got, err := NewV2Codec(false).Decode(mustEncode(t, NewV2Codec(false), msg(1, blob)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records, msg(1, blob).Records) {
		t.Fatalf("payload round trip:\n got %+v\nwant %+v", got.Records, msg(1, blob).Records)
	}

	// Delta session: first frame carries the blob; an epoch-stable frame
	// must not resend it, an epoch change must.
	enc, dec := NewV2Codec(true), NewV2Codec(true)
	if _, err := dec.Decode(mustEncode(t, enc, msg(1, blob))); err != nil {
		t.Fatal(err)
	}
	stable := msg(2, blob)
	stable.Records[0].Attrs[1].Value = 1 // same epoch, counter moved
	stableFrame := mustEncode(t, enc, stable)
	stableLen := len(stableFrame)
	got, err = dec.Decode(stableFrame)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records, stable.Records) {
		t.Fatalf("stable-epoch delta merge:\n got %+v\nwant %+v", got.Records, stable.Records)
	}
	if p := got.Records[0].Attrs[1].Payload; string(p) != string(blob) {
		t.Fatalf("merge lost the cached payload: %v", p)
	}

	grown := append(append([]byte{}, blob...), 0xAA, 0xBB, 0xCC, 0xDD)
	grown[7] = 9 // new epoch inside the blob too
	changed := msg(3, grown)
	changed.Records[0].Attrs[1].Value = 9
	changedFrame := mustEncode(t, enc, changed)
	changedLen := len(changedFrame)
	got, err = dec.Decode(changedFrame)
	if err != nil {
		t.Fatal(err)
	}
	if p := got.Records[0].Attrs[1].Payload; string(p) != string(grown) {
		t.Fatalf("epoch change did not refresh the payload: %v", p)
	}
	if !bytes.Contains(changedFrame, grown) {
		t.Fatalf("changed-epoch frame (%dB) does not resend the blob", changedLen)
	}
	if bytes.Contains(stableFrame, blob) {
		t.Fatalf("stable-epoch frame (%dB) resends the %dB blob; delta should elide it", stableLen, len(blob))
	}
}

func TestV2EncodeRejections(t *testing.T) {
	enc := NewV2Codec(false)
	if _, err := enc.Encode(&Message{Type: TypeHello}); err == nil {
		t.Fatal("hello accepted by v2 encoder")
	}
	if _, err := enc.Encode(&Message{Type: TypePing, Hello: &Hello{}}); err == nil {
		t.Fatal("hello body accepted by v2 encoder")
	}
	if _, err := enc.Encode(&Message{Type: MsgType("bogus")}); err == nil {
		t.Fatal("unknown type accepted")
	}
}

func TestV2DecodeErrors(t *testing.T) {
	valid := mustEncode(t, NewV2Codec(false), v2SweepResponse(2, 3, 1))
	cases := map[string][]byte{
		"empty":     {},
		"short":     {v2Magic},
		"bad magic": {0x7b, 1, 0, 0, 0}, // '{' — a JSON frame
		"bad type":  {v2Magic, 0xEE, 0, 0, 0},
		"truncated": valid[:len(valid)/2],
		"trailing":  append(append([]byte{}, valid...), 0xFF),
		// A record count far beyond what the remaining bytes could hold
		// must be rejected before any allocation is attempted.
		"huge count": {v2Magic, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0xFF, 0xFF, 0x03},
	}
	for name, b := range cases {
		dec := NewV2Codec(false)
		if _, err := dec.Decode(b); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}

	// A string-table reference beyond the table must error.
	enc := NewV2Codec(false)
	frame := mustEncode(t, enc, &Message{Type: TypePong, ID: 1, Machine: "m0"})
	// Fresh decoder has an empty table, so the second encode (which
	// references the interned "m0") is corrupt for it.
	frame2 := mustEncode(t, enc, &Message{Type: TypePong, ID: 2, Machine: "m0"})
	fresh := NewV2Codec(false)
	if _, err := fresh.Decode(frame2); err == nil || !strings.Contains(err.Error(), "string ref") {
		t.Fatalf("out-of-table ref: %v", err)
	}
	_ = frame

	// Delta records are invalid on non-delta sessions and for elements
	// the session has not seen in full.
	dEnc := NewV2Codec(true)
	base := &Message{Type: TypeResponse, ID: 1, Records: []core.Record{
		{Timestamp: 1, Element: "m0/pnic", Attrs: []core.Attr{core.NamedAttr("a", 1)}}}}
	if _, err := dEnc.Encode(base); err != nil {
		t.Fatal(err)
	}
	base.Records[0].Timestamp = 2
	deltaFrame := mustEncode(t, dEnc, base) // second frame is a delta record
	if _, err := NewV2Codec(false).Decode(deltaFrame); err == nil {
		t.Fatal("delta record accepted on non-delta session")
	}
	if _, err := NewV2Codec(true).Decode(deltaFrame); err == nil {
		t.Fatal("delta record accepted for unseen element")
	}
}

// TestV2AttrKeyCoding pins the attribute-key wire rules introduced with
// the statistics schema: schema attributes travel as bare 1-byte AttrIDs,
// extension attributes by name (key 0 introduces one, higher keys
// reference the connection's intern table), and a key referencing past
// the table is rejected — extension IDs are process-local and never
// travel numerically, only as connection-scoped name references.
func TestV2AttrKeyCoding(t *testing.T) {
	// A record whose last attribute is a schema attr yields a frame whose
	// final two bytes are the attr key and the varint value — a stable
	// place to mutate.
	frame := mustEncode(t, NewV2Codec(false), &Message{Type: TypeResponse, ID: 1, Machine: "m0",
		Records: []core.Record{{Timestamp: 1, Element: "m0/host",
			Attrs: []core.Attr{{ID: core.AttrMemBytes, Value: 3}}}}})
	if frame[len(frame)-2] != byte(core.AttrMemBytes) {
		t.Fatalf("frame does not end with the bare schema attr id: % x", frame[len(frame)-4:])
	}
	m, err := NewV2Codec(false).Decode(frame)
	if err != nil || m.Records[0].Attrs[0].ID != core.AttrMemBytes || m.Records[0].Attrs[0].Value != 3 {
		t.Fatalf("decode: %v %+v", err, m)
	}

	outOfRange := append([]byte{}, frame...)
	outOfRange[len(outOfRange)-2] = 60 // > SchemaMax: name ref far outside the table
	if _, err := NewV2Codec(false).Decode(outOfRange); err == nil || !strings.Contains(err.Error(), "outside table") {
		t.Fatalf("out-of-range attr key not rejected: %v", err)
	}

	corrupt := append([]byte{}, frame...)
	corrupt[len(corrupt)-2] = 0 // ext marker: the value byte now reads as a string ref
	if _, err := NewV2Codec(false).Decode(corrupt); err == nil {
		t.Fatal("corrupt attr key decoded without error")
	}

	// An extension attribute round-trips by name, mixed with schema attrs.
	frame2 := mustEncode(t, NewV2Codec(false), &Message{Type: TypeResponse, ID: 2, Machine: "m0",
		Records: []core.Record{{Timestamp: 1, Element: "m0/vm1/app",
			Attrs: []core.Attr{{ID: core.AttrRxPackets, Value: 5},
				core.NamedAttr("v2_ext_attr_key_test", 9)}}}})
	m, err = NewV2Codec(false).Decode(frame2)
	if err != nil {
		t.Fatal(err)
	}
	attrs := m.Records[0].Attrs
	if len(attrs) != 2 || attrs[0].ID != core.AttrRxPackets ||
		attrs[1].Name() != "v2_ext_attr_key_test" || attrs[1].Value != 9 {
		t.Fatalf("extension attr lost in round trip: %+v", attrs)
	}
}

// TestV2RoundTripAllocBudget pins the steady-state allocation cost of a
// full sweep-response round trip at its measured value. The input
// messages are built before measuring: their fmt calls go through a
// sync.Pool, whose reuse the race detector randomizes.
func TestV2RoundTripAllocBudget(t *testing.T) {
	const budget = 3
	enc := NewV2Codec(false)
	dec := NewV2Codec(false)
	// Warm the intern tables; steady state is what sweeps pay.
	for i := 0; i < 3; i++ {
		if _, err := dec.Decode(mustEncode(t, enc, v2SweepResponse(26, 12, 0))); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 50
	msgs := make([]*Message, runs+1) // AllocsPerRun adds one warm-up call
	for i := range msgs {
		msgs[i] = v2SweepResponse(26, 12, int64(i+1))
	}
	n := 0
	got := testing.AllocsPerRun(runs, func() {
		payload, err := enc.Encode(msgs[n])
		n++
		if err != nil {
			t.Fatal(err)
		}
		if _, err := dec.Decode(payload); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("codec round trip allocs/op = %.1f (budget %d)", got, budget)
	if got > budget {
		t.Fatalf("codec round-trip allocs/op = %.1f exceeds budget %d", got, budget)
	}
}

// TestV2VsJSONSizeAndAllocs enforces the codec's reason to exist: on a
// representative steady-state sweep response, v2 must put at least 60%
// fewer bytes on the wire and allocate at least 80% less than JSON.
func TestV2VsJSONSizeAndAllocs(t *testing.T) {
	enc := NewV2Codec(false)
	dec := NewV2Codec(false)
	tick := int64(0)
	warm := v2SweepResponse(26, 12, tick)
	for i := 0; i < 3; i++ {
		if _, err := dec.Decode(mustEncode(t, enc, warm)); err != nil {
			t.Fatal(err)
		}
	}

	jsonBytes, err := Encode(warm)
	if err != nil {
		t.Fatal(err)
	}
	v2Bytes := mustEncode(t, enc, warm)
	if ratio := float64(len(v2Bytes)) / float64(len(jsonBytes)); ratio > 0.40 {
		t.Fatalf("v2 frame %dB vs JSON %dB (%.0f%%); want ≤40%%",
			len(v2Bytes), len(jsonBytes), 100*ratio)
	}

	inputAllocs := testing.AllocsPerRun(20, func() {
		tick++
		_ = v2SweepResponse(26, 12, tick)
	})
	v2Allocs := testing.AllocsPerRun(20, func() {
		tick++
		m := v2SweepResponse(26, 12, tick)
		payload, _ := enc.Encode(m)
		if _, err := dec.Decode(payload); err != nil {
			t.Fatal(err)
		}
	}) - inputAllocs
	jsonAllocs := testing.AllocsPerRun(20, func() {
		tick++
		m := v2SweepResponse(26, 12, tick)
		payload, _ := Encode(m)
		if _, err := Decode(payload); err != nil {
			t.Fatal(err)
		}
	}) - inputAllocs
	t.Logf("bytes: v2 %d vs json %d; allocs/op: v2 %.1f vs json %.1f",
		len(v2Bytes), len(jsonBytes), v2Allocs, jsonAllocs)
	if v2Allocs > 0.20*jsonAllocs {
		t.Fatalf("v2 allocs/op %.1f vs JSON %.1f; want ≤20%%", v2Allocs, jsonAllocs)
	}
}

// Frames over MaxFrame are refused at encode time like the JSON codec.
func TestV2EncodeMaxFrame(t *testing.T) {
	enc := NewV2Codec(false)
	m := &Message{Type: TypeError, Error: strings.Repeat("x", MaxFrame)}
	if _, err := enc.Encode(m); err == nil {
		t.Fatal("oversized frame accepted")
	}
}
