// Package wire defines the message protocol between the PerfSight
// controller and its per-server agents: length-prefixed frames over TCP.
// The payloads carry the §4.2 unified record format, so the protocol is
// oblivious to element diversity — extending the statistics set needs no
// protocol change.
//
// Two payload codecs exist. Every connection starts with the JSON codec;
// a controller may send a hello frame (always JSON) to negotiate the
// compact binary codec v2 (see v2.go), with transparent fallback to JSON
// when the peer predates or refuses it.
package wire

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"perfsight/internal/core"
)

// MaxFrame bounds a frame to keep a misbehaving peer from ballooning
// memory.
const MaxFrame = 16 << 20

// MsgType enumerates protocol messages.
type MsgType string

const (
	// TypeQuery asks an agent for element statistics.
	TypeQuery MsgType = "query"
	// TypeResponse carries the requested records.
	TypeResponse MsgType = "response"
	// TypeListElements asks for the agent's element inventory.
	TypeListElements MsgType = "list"
	// TypeElementList carries the inventory.
	TypeElementList MsgType = "elements"
	// TypePing / TypePong measure agent liveness and response time.
	TypePing MsgType = "ping"
	TypePong MsgType = "pong"
	// TypeError reports a failure for the request with the same ID.
	TypeError MsgType = "error"
	// TypeHello / TypeHelloAck negotiate the payload codec for the rest
	// of the connection. Hello frames are always JSON-encoded so peers
	// that predate codec v2 can parse them; an old agent answers a hello
	// with TypeError ("unknown message type"), which the client reads as
	// "JSON only".
	TypeHello    MsgType = "hello"
	TypeHelloAck MsgType = "hello_ack"
	// TypeStreamStart flips a negotiated connection into push mode: the
	// agent streams TypeStreamData frames at adaptive cadence until the
	// connection closes. Only valid after a hello granted the stream
	// capability.
	TypeStreamStart MsgType = "stream_start"
	// TypeStreamData is one pushed batch of records (agent → controller),
	// sequenced so the receiver can count gaps.
	TypeStreamData MsgType = "stream_data"
	// TypeStreamControl is the controller's backpressure signal
	// (controller → agent): it raises the sender's cadence floor while
	// ingest queues are congested, and releases it when they drain.
	TypeStreamControl MsgType = "stream_control"
)

// Codec names carried in Hello frames.
const (
	CodecJSON = "json"
	CodecV2   = "v2"
)

// Hello is the codec-negotiation payload of TypeHello/TypeHelloAck.
type Hello struct {
	// Codecs lists wire codecs in preference order (offer), or carries
	// the single granted codec (ack). An ack without CodecV2 means the
	// connection stays on JSON.
	Codecs []string `json:"codecs,omitempty"`
	// Delta requests (offer) or grants (ack) delta-encoded responses:
	// the agent resends only attrs whose values changed since that
	// connection's previous response for the same element.
	Delta bool `json:"delta,omitempty"`
	// Stream requests (offer) or grants (ack) push streaming: the
	// connection accepts a TypeStreamStart and pushes TypeStreamData
	// frames. Old agents never set it in an ack, so a controller falls
	// back to pull sweeps transparently.
	Stream bool `json:"stream,omitempty"`
	// Sketch requests (offer) or grants (ack) sketch-based flow
	// statistics: the agent ships one constant-size `flow_sketch` payload
	// attr per vswitch instead of enumerating per-rule counters. A peer
	// that never offers it (an old controller) gets the legacy per-flow
	// enumeration, so mixed versions interoperate.
	Sketch bool `json:"sketch,omitempty"`
	// Spans requests (offer) or grants (ack) span-context piggybacking:
	// the agent decorates v2 response and stream_data frames with a
	// compact span section (its clock reading plus per-channel gather
	// spans) that the controller skew-corrects onto its own timeline.
	// Granted only alongside codec v2 — the JSON encoding is unaffected,
	// and a peer that never offers it keeps the plain agent_ns split.
	Spans bool `json:"spans,omitempty"`
}

// Span is one agent-side span piggybacked on a v2 response or
// stream_data frame. IDs and parents are frame-local (assigned from 1
// per frame); the controller remaps them into its trace and re-anchors
// Parent 0 spans under its own gather span. StartNS is on the *agent's*
// clock — the receiver skew-corrects it (see telemetry.SkewEstimator).
type Span struct {
	ID      uint64
	Parent  uint64
	Name    string
	StartNS int64
	DurNS   int64
	Status  string // "" = ok
}

// StreamInfo parameterizes push streaming; it rides TypeStreamStart
// (cadence bounds), TypeStreamData (sequence), and TypeStreamControl
// (throttle) frames.
type StreamInfo struct {
	// CadenceMinNS/CadenceMaxNS bound the adaptive push cadence on a
	// stream_start: the agent sends every CadenceMinNS while counters
	// move and decays toward CadenceMaxNS when quiescent. The agent may
	// clamp both to its own configured bounds; the effective bounds are
	// echoed on the first stream_data frame.
	CadenceMinNS int64 `json:"cadence_min_ns,omitempty"`
	CadenceMaxNS int64 `json:"cadence_max_ns,omitempty"`
	// Seq numbers stream_data frames per connection, starting at 1, so
	// the receiver can detect sender-side restarts and count gaps.
	Seq uint64 `json:"seq,omitempty"`
	// ThrottleNS is the backpressure signal on a stream_control frame: a
	// new cadence floor the sender must respect (0 releases the throttle
	// back to the negotiated CadenceMinNS).
	ThrottleNS int64 `json:"throttle_ns,omitempty"`
}

// Codec turns Messages into frame payloads and back. JSONCodec is
// stateless; V2Codec carries per-connection string tables and delta
// state, so use one instance per connection endpoint and do not share it
// across goroutines.
type Codec interface {
	Name() string
	// Encode returns the frame payload for m. The slice may alias an
	// internal buffer that is overwritten by the next Encode call.
	Encode(m *Message) ([]byte, error)
	// Decode parses one frame payload. Returned Records own their
	// storage and stay valid across subsequent calls.
	Decode(payload []byte) (*Message, error)
}

// JSONCodec is the v1 payload codec: one JSON object per frame.
type JSONCodec struct{}

// Name implements Codec.
func (JSONCodec) Name() string { return CodecJSON }

// Encode implements Codec.
func (JSONCodec) Encode(m *Message) ([]byte, error) { return Encode(m) }

// Decode implements Codec.
func (JSONCodec) Decode(payload []byte) (*Message, error) { return Decode(payload) }

// Query requests statistics from an agent.
type Query struct {
	// Elements to fetch; empty with All=true fetches everything.
	Elements []core.ElementID `json:"elements,omitempty"`
	// Attrs filters the returned attributes (empty = all).
	Attrs []string `json:"attrs,omitempty"`
	All   bool     `json:"all,omitempty"`
}

// ElementMeta describes one element in an inventory response.
type ElementMeta struct {
	ID   core.ElementID   `json:"id"`
	Kind core.ElementKind `json:"kind"`
}

// Message is one protocol frame.
type Message struct {
	Type     MsgType        `json:"type"`
	ID       uint64         `json:"id"`
	Machine  core.MachineID `json:"machine,omitempty"`
	Query    *Query         `json:"query,omitempty"`
	Records  []core.Record  `json:"records,omitempty"`
	Elements []ElementMeta  `json:"element_list,omitempty"`
	Error    string         `json:"error,omitempty"`
	// Hello carries codec negotiation; only valid on TypeHello and
	// TypeHelloAck frames, which are always JSON-encoded.
	Hello *Hello `json:"hello,omitempty"`
	// Stream carries push-streaming parameters; only valid on the
	// TypeStream* frames.
	Stream *StreamInfo `json:"stream,omitempty"`

	// TraceID correlates a request/response pair with the controller's
	// query-lifecycle trace (internal/telemetry); agents echo it back.
	// Zero means untraced.
	TraceID uint64 `json:"trace_id,omitempty"`
	// AgentNS is the agent-side handling time of the request in
	// nanoseconds, set on responses so the controller can split its
	// observed round trip into transport vs. agent-gather time.
	AgentNS int64 `json:"agent_ns,omitempty"`
	// AgentTS is the agent's clock (unix nanoseconds) when it finished
	// handling — the t3 of the midpoint clock-skew estimate. It rides
	// JSON hello_ack frames (seeding skew for push streams) and the v2
	// span section; it is never JSON-encoded on data frames, because
	// agents only set it once the spans capability is granted (v2-only).
	AgentTS int64 `json:"agent_ts,omitempty"`
	// AgentSpans carries the agent's piggybacked spans. v2-only — the
	// json:"-" tag guarantees the JSON codec is byte-identical with and
	// without the spans capability. On decode the slice aliases the
	// codec's scratch buffer and is only valid until the next Decode:
	// consumers must fold spans into a trace before reading more frames.
	AgentSpans []Span `json:"-"`
}

// Encode marshals a message into a frame payload (without the length
// header). Split from Write so instrumented callers can time the encode
// and transmit stages separately.
func Encode(m *Message) ([]byte, error) {
	payload, err := json.Marshal(m)
	if err != nil {
		return nil, fmt.Errorf("wire: marshal: %w", err)
	}
	if len(payload) > MaxFrame {
		return nil, fmt.Errorf("wire: frame too large: %d bytes", len(payload))
	}
	return payload, nil
}

// Decode parses a frame payload produced by Encode/ReadFrame.
func Decode(payload []byte) (*Message, error) {
	var m Message
	if err := json.Unmarshal(payload, &m); err != nil {
		return nil, fmt.Errorf("wire: unmarshal: %w", err)
	}
	return &m, nil
}

// WriteFrame sends an encoded payload: 4-byte big-endian length, then
// the bytes.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload) > MaxFrame {
		return fmt.Errorf("wire: frame too large: %d bytes", len(payload))
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("wire: write header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("wire: write payload: %w", err)
	}
	return nil
}

// ReadFrame receives one raw frame payload.
func ReadFrame(r io.Reader) ([]byte, error) {
	var buf []byte
	return ReadFrameBuf(r, &buf)
}

// ReadFrameBuf receives one raw frame payload into *buf, growing it only
// when the frame outsizes its capacity. The returned slice aliases *buf
// and is valid until the next call with the same buffer — connection
// loops hold one buffer (typically from GetBuf) so steady-state reads
// allocate nothing.
func ReadFrameBuf(r io.Reader, buf *[]byte) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err // io.EOF passes through for clean shutdown
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, fmt.Errorf("wire: empty frame")
	}
	if n > MaxFrame {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	if uint32(cap(*buf)) < n {
		*buf = make([]byte, n)
	}
	payload := (*buf)[:n]
	if _, err := io.ReadFull(r, payload); err != nil {
		return nil, fmt.Errorf("wire: read payload: %w", err)
	}
	return payload, nil
}

// bufPool recycles frame buffers across connections, so a freshly
// accepted connection starts with a warmed buffer instead of growing its
// own from scratch.
var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// GetBuf borrows a frame buffer from the shared pool; pair with PutBuf
// when the connection ends.
func GetBuf() *[]byte { return bufPool.Get().(*[]byte) }

// PutBuf returns a (possibly grown) frame buffer to the shared pool.
func PutBuf(b *[]byte) {
	if b == nil {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// Write frames and sends a message: 4-byte big-endian length, then JSON.
func Write(w io.Writer, m *Message) error {
	payload, err := Encode(m)
	if err != nil {
		return err
	}
	return WriteFrame(w, payload)
}

// Read receives one framed message.
func Read(r io.Reader) (*Message, error) {
	payload, err := ReadFrame(r)
	if err != nil {
		return nil, err
	}
	return Decode(payload)
}

// AttrFilter selects a subset of attributes. Build one per query with
// NewAttrFilter: the wire's attribute names are compiled once to IDs —
// schema attrs become bits in a fixed mask, extension attrs a small ID set
// — so matching each record attribute is an integer test, not a string
// map probe. Unknown names resolve to nothing (they cannot match any
// record) and are deliberately not registered, so a hostile peer cannot
// grow the extension registry by streaming made-up query names.
type AttrFilter struct {
	mask uint32 // bit i set: keep schema attr i (SchemaMax < 32)
	ext  map[core.AttrID]struct{}
	n    int // requested name count, a capacity hint for Apply
}

// NewAttrFilter compiles an attribute name list; empty names return a
// nil filter, which passes records through untouched.
func NewAttrFilter(names []string) *AttrFilter {
	if len(names) == 0 {
		return nil
	}
	f := &AttrFilter{n: len(names)}
	for _, name := range names {
		id, ok := core.LookupAttr(name)
		if !ok {
			continue
		}
		if core.IsSchemaAttr(id) {
			f.mask |= 1 << id
			continue
		}
		if f.ext == nil {
			f.ext = make(map[core.AttrID]struct{}, len(names))
		}
		f.ext[id] = struct{}{}
	}
	return f
}

// Match reports whether the filter keeps the attribute.
func (f *AttrFilter) Match(id core.AttrID) bool {
	if core.IsSchemaAttr(id) {
		return f.mask&(1<<id) != 0
	}
	_, ok := f.ext[id]
	return ok
}

// Apply returns a copy of rec keeping only the filter's attributes, in
// record order. A nil filter returns rec unchanged.
func (f *AttrFilter) Apply(rec core.Record) core.Record {
	if f == nil {
		return rec
	}
	n := len(rec.Attrs)
	if f.n < n {
		n = f.n
	}
	out := core.Record{Timestamp: rec.Timestamp, Element: rec.Element,
		Attrs: make([]core.Attr, 0, n)}
	for _, a := range rec.Attrs {
		if f.Match(a.ID) {
			out.Attrs = append(out.Attrs, a)
		}
	}
	return out
}
