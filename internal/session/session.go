// Package session is the controller's one channel to a per-server agent
// (§4.3): hello, codec pairing, framing, clock skew and span
// re-anchoring for a single connection. The pull client
// (controller.TCPClient: Send then Recv per request) and the push stream
// (ingest.Stream: stream_start, then a Recv loop) are two uses of it;
// dialing, deadlines and redial policy stay with them.
//
// A Session's payload codec (v2 intern tables, delta baselines) and its
// skew estimate are connection-scoped: they are created by Open and die
// with the connection, so a redial can never decode against a previous
// connection's baseline or inherit a restarted agent's clock offset.
// Hold a Session by pointer and never copy it.
//
// Concurrency: Send calls must be serialized by the caller, and so must
// Recv calls; one Send may run beside one Recv (the codec's encode and
// decode halves keep disjoint state).
package session

import (
	"fmt"
	"net"
	"slices"
	"time"

	"perfsight/internal/telemetry"
	"perfsight/internal/wire"
)

// Offer is what the controller side asks for in the hello.
type Offer struct {
	// Codec pins the payload codec: wire.CodecJSON never offers v2;
	// anything else offers v2 with JSON fallback.
	Codec string
	// Delta, Sketch, Spans and Stream request the hello capabilities of
	// the same names. Delta and Spans ride only a v2 session.
	Delta, Sketch, Spans, Stream bool
}

// Session is one live agent connection with everything scoped to it.
type Session struct {
	// Conn is exposed for deadlines and Close only; frames go through
	// Send and Recv.
	Conn net.Conn
	// Spans and Stream are the capabilities the agent granted.
	Spans, Stream bool

	codec    wire.Codec
	skew     telemetry.SkewEstimator
	frameBuf []byte
	tx, rx   *telemetry.Counter
}

// Timing is what one Send or Recv measured, for the caller's trace.
type Timing struct {
	// At is the instant just before the frame was written (Send) or just
	// after it arrived (Recv).
	At time.Time
	// Codec is the time spent encoding (Send) or decoding (Recv).
	Codec time.Duration
}

// CodecError marks a Send or Recv failure that came from the payload
// codec (encode, decode) rather than from the connection, so a caller can
// name the failing stage; it prints as the error it wraps.
type CodecError struct{ Err error }

func (e *CodecError) Error() string { return e.Err.Error() }
func (e *CodecError) Unwrap() error { return e.Err }

// Open runs the hello on a freshly dialed connection and returns the
// session to use for its lifetime. The hello is always JSON — that is what
// makes it safe against agents that predate it: they answer with a JSON
// error frame and the session stays on JSON with nothing granted. A
// JSON-pinned offer without Stream sends no hello at all, as a v1 peer
// expects. id is the hello's message ID; an ack carrying another ID is an
// error. The ack's agent_ts seeds the skew estimate.
//
// tx and rx, when non-nil, count every frame's bytes (4-byte header
// included), the hello's too. The pull client passes its
// perfsight_controller_wire_bytes_total pair; the push stream passes nil
// (the perfsight_ingest_* series count frames and records, not bytes).
func Open(conn net.Conn, id uint64, o Offer, tx, rx *telemetry.Counter) (*Session, error) {
	s := &Session{Conn: conn, codec: wire.JSONCodec{}, tx: tx, rx: rx}
	if o.Codec == wire.CodecJSON && !o.Stream {
		return s, nil
	}
	h := &wire.Hello{Stream: o.Stream, Sketch: o.Sketch}
	if o.Codec != wire.CodecJSON {
		h.Codecs = []string{wire.CodecV2}
		h.Delta, h.Spans = o.Delta, o.Spans
	}
	sent, err := s.Send(&wire.Message{Type: wire.TypeHello, ID: id, Hello: h})
	if err != nil {
		return nil, err
	}
	ack, got, err := s.Recv()
	if err != nil {
		return nil, err
	}
	if ack.ID != id {
		return nil, fmt.Errorf("session: hello response id %d for request %d", ack.ID, id)
	}
	s.skew.Observe(sent.At.UnixNano(), got.At.UnixNano(), ack.AgentTS, 0)
	if ack.Type != wire.TypeHelloAck || ack.Hello == nil {
		// An old agent's error frame: JSON only, nothing granted.
		return s, nil
	}
	s.Stream = o.Stream && ack.Hello.Stream
	if o.Codec != wire.CodecJSON && slices.Contains(ack.Hello.Codecs, wire.CodecV2) {
		v2 := wire.NewV2Codec(o.Delta && ack.Hello.Delta)
		if o.Spans && ack.Hello.Spans {
			v2.EnableSpans()
			s.Spans = true
		}
		s.codec = v2
	}
	return s, nil
}

// Codec names the session's payload codec.
func (s *Session) Codec() string { return s.codec.Name() }

// Send encodes m under the session codec and writes it as one frame.
func (s *Session) Send(m *wire.Message) (Timing, error) {
	start := time.Now()
	payload, err := s.codec.Encode(m)
	t := Timing{At: time.Now()}
	t.Codec = t.At.Sub(start)
	if err != nil {
		return t, &CodecError{err}
	}
	if err := wire.WriteFrame(s.Conn, payload); err != nil {
		return t, err
	}
	if s.tx != nil {
		s.tx.Add(uint64(len(payload)) + 4)
	}
	return t, nil
}

// Recv reads one frame and decodes it under the session codec. The
// message's AgentSpans alias codec scratch: fold them into a trace
// (RemapSpans) before the next Recv.
func (s *Session) Recv() (*wire.Message, Timing, error) {
	raw, err := wire.ReadFrameBuf(s.Conn, &s.frameBuf)
	t := Timing{At: time.Now()}
	if err != nil {
		return nil, t, err
	}
	if s.rx != nil {
		s.rx.Add(uint64(len(raw)) + 4)
	}
	m, err := s.codec.Decode(raw)
	t.Codec = time.Since(t.At)
	if err != nil {
		return nil, t, &CodecError{err}
	}
	return m, t, nil
}

// ObserveReply feeds the skew estimate one request/response pair: the
// request left at sent, resp arrived at got. Responses without an
// agent_ts are ignored.
func (s *Session) ObserveReply(sent, got time.Time, resp *wire.Message) {
	s.skew.Observe(sent.UnixNano(), got.UnixNano(), resp.AgentTS, resp.AgentNS)
}

// SkewOffset reports the agent-minus-controller clock offset estimate in
// nanoseconds and whether any sample has been observed.
func (s *Session) SkewOffset() (int64, bool) { return s.skew.Offset() }

// RemapSpans folds one frame's agent spans into qt: span IDs are
// reassigned by the tracer, parents are translated through the id table
// (the agent's root, Parent 0, re-anchors under parent), and timestamps
// are moved onto the controller clock by the skew estimate, then clamped
// into [lo, hi] — the window the caller knows the agent's work fell in —
// so a nonsense agent clock can never place a span outside it.
func (s *Session) RemapSpans(qt *telemetry.QueryTrace, parent uint64, spans []wire.Span, lo, hi int64) {
	if len(spans) == 0 {
		return
	}
	offset, _ := s.skew.Offset()
	var ids [telemetry.MaxSpansPerTrace + 1]uint64
	for i := range spans {
		sp := &spans[i]
		// offset is agent-clock minus controller-clock; subtracting moves
		// the agent timestamp onto the controller's timeline.
		start, dur := telemetry.ClampSpanWindow(sp.StartNS-offset, sp.DurNS, lo, hi)
		under := parent
		if sp.Parent != 0 && sp.Parent < uint64(len(ids)) && ids[sp.Parent] != 0 {
			under = ids[sp.Parent]
		}
		id := qt.AddSpan("agent", sp.Name, start, dur, under, sp.Status)
		if sp.ID < uint64(len(ids)) {
			ids[sp.ID] = id
		}
	}
}
