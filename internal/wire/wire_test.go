package wire

import (
	"bytes"
	"encoding/binary"
	"io"
	"reflect"
	"testing"
	"testing/quick"

	"perfsight/internal/core"
)

func TestMessageRoundTrip(t *testing.T) {
	in := &Message{
		Type:    TypeResponse,
		ID:      42,
		Machine: "m0",
		Records: []core.Record{{
			Timestamp: 123,
			Element:   "m0/pnic",
			Attrs:     []core.Attr{core.NamedAttr("rx_bytes", 1e9)},
		}},
	}
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip:\n in=%+v\nout=%+v", in, out)
	}
}

// TestTraceFieldsRoundTrip pins the telemetry correlation fields: a
// traced request and a timed response must survive the frame intact.
func TestTraceFieldsRoundTrip(t *testing.T) {
	in := &Message{
		Type:    TypeResponse,
		ID:      9,
		Machine: "m0",
		TraceID: 0xCAFED00D,
		AgentNS: 123456789,
	}
	var buf bytes.Buffer
	if err := Write(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.TraceID != in.TraceID || out.AgentNS != in.AgentNS {
		t.Fatalf("trace fields lost: got trace_id=%d agent_ns=%d", out.TraceID, out.AgentNS)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip:\n in=%+v\nout=%+v", in, out)
	}
	// Untraced messages must not grow the frame: zero values are omitted.
	var bare bytes.Buffer
	if err := Write(&bare, &Message{Type: TypePing, ID: 1}); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(bare.Bytes(), []byte("trace_id")) || bytes.Contains(bare.Bytes(), []byte("agent_ns")) {
		t.Fatalf("zero trace fields serialized: %s", bare.Bytes())
	}
}

// TestEncodeDecodeSplit checks the staged API (Encode/WriteFrame and
// ReadFrame/Decode) agrees with the combined Write/Read path.
func TestEncodeDecodeSplit(t *testing.T) {
	in := &Message{Type: TypeQuery, ID: 3, TraceID: 77, Query: &Query{All: true}}
	payload, err := Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	raw, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("staged round trip:\n in=%+v\nout=%+v", in, out)
	}
}

func TestMultipleFramesSequential(t *testing.T) {
	var buf bytes.Buffer
	for i := uint64(1); i <= 3; i++ {
		Write(&buf, &Message{Type: TypePing, ID: i})
	}
	for i := uint64(1); i <= 3; i++ {
		m, err := Read(&buf)
		if err != nil || m.ID != i {
			t.Fatalf("frame %d: %v, %v", i, m, err)
		}
	}
	if _, err := Read(&buf); err != io.EOF {
		t.Fatalf("want EOF after last frame, got %v", err)
	}
}

func TestReadRejectsOversizedFrame(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], MaxFrame+1)
	if _, err := Read(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestReadRejectsEmptyFrame(t *testing.T) {
	var hdr [4]byte
	if _, err := Read(bytes.NewReader(hdr[:])); err == nil {
		t.Fatal("empty frame accepted")
	}
}

func TestReadRejectsTruncatedPayload(t *testing.T) {
	var buf bytes.Buffer
	Write(&buf, &Message{Type: TypePing, ID: 1})
	data := buf.Bytes()[:buf.Len()-2]
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("truncated payload accepted")
	}
}

func TestReadRejectsMalformedJSON(t *testing.T) {
	payload := []byte("{not json")
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	data := append(hdr[:], payload...)
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestFilterAttrs(t *testing.T) {
	rec := core.Record{Element: "e", Attrs: []core.Attr{
		core.NamedAttr("a", 1), core.NamedAttr("b", 2), core.NamedAttr("c", 3),
	}}
	got := NewAttrFilter([]string{"c", "a", "missing"}).Apply(rec)
	if len(got.Attrs) != 2 {
		t.Fatalf("filtered attrs: %v", got.Attrs)
	}
	if v, _ := got.Get(core.AttrIDFor("c")); v != 3 {
		t.Fatal("filter lost value")
	}
	// Empty filter passes everything through untouched.
	if all := NewAttrFilter(nil).Apply(rec); len(all.Attrs) != 3 {
		t.Fatal("nil filter dropped attrs")
	}
}

// TestQueryRoundTripProperty fuzzes query payloads through the framing.
func TestQueryRoundTripProperty(t *testing.T) {
	f := func(ids []string, attrs []string, all bool, id uint64) bool {
		q := &Query{All: all}
		for _, s := range ids {
			q.Elements = append(q.Elements, core.ElementID(s))
		}
		q.Attrs = attrs
		in := &Message{Type: TypeQuery, ID: id, Query: q}
		var buf bytes.Buffer
		if err := Write(&buf, in); err != nil {
			return false
		}
		out, err := Read(&buf)
		if err != nil || out.Type != TypeQuery || out.ID != id || out.Query == nil {
			return false
		}
		if out.Query.All != all || len(out.Query.Elements) != len(q.Elements) {
			return false
		}
		for i := range q.Elements {
			if out.Query.Elements[i] != q.Elements[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
