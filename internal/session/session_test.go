package session

import (
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"perfsight/internal/agent"
	"perfsight/internal/telemetry"
	"perfsight/internal/wire"
)

// countConn counts Write calls: wire.WriteFrame makes two per frame.
type countConn struct {
	net.Conn
	writes atomic.Int64
}

func (c *countConn) Write(p []byte) (int, error) {
	c.writes.Add(1)
	return c.Conn.Write(p)
}

// dialPeer returns a deadline-bounded connection to a loopback listener
// whose accepted connections are handed to serve.
func dialPeer(t *testing.T, serve func(net.Listener)) *countConn {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go serve(ln)
	conn, err := net.DialTimeout("tcp", ln.Addr().String(), 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.SetDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	return &countConn{Conn: conn}
}

// realAgent serves an agent with every capability allowed, then mutated.
func realAgent(mutate func(*agent.Agent)) func(net.Listener) {
	a := agent.New("m0", func() int64 { return time.Now().UnixNano() })
	a.AllowDelta, a.AllowStream, a.AllowSpans, a.AllowSketch = true, true, true, true
	if mutate != nil {
		mutate(a)
	}
	return func(ln net.Listener) { a.Serve(ln) }
}

// scripted answers the first frame of one connection with reply's
// message, the way an agent that predates (or garbles) the hello would.
func scripted(reply func(hello *wire.Message) *wire.Message) func(net.Listener) {
	return func(ln net.Listener) {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		hello, err := wire.Read(conn)
		if err != nil {
			return
		}
		wire.Write(conn, reply(hello))
		wire.Read(conn) // hold the connection until the client is done
	}
}

func TestOpenNegotiation(t *testing.T) {
	all := Offer{Delta: true, Sketch: true, Spans: true, Stream: true}
	pinned := all
	pinned.Codec = wire.CodecJSON
	pull := Offer{Delta: true, Sketch: true, Spans: true}
	pullPinned := pull
	pullPinned.Codec = wire.CodecJSON

	cases := []struct {
		name   string
		offer  Offer
		peer   func(net.Listener)
		codec  string
		spans  bool
		stream bool
		seeded bool   // the ack's agent_ts seeded the skew estimate
		frames int64  // hello frames the client wrote
		err    string // substring of Open's error; "" = success
	}{
		{name: "everything granted", offer: all, peer: realAgent(nil),
			codec: wire.CodecV2, spans: true, stream: true, seeded: true, frames: 1},
		{name: "pull never asks for the stream", offer: pull, peer: realAgent(nil),
			codec: wire.CodecV2, spans: true, seeded: true, frames: 1},
		{name: "JSON-pinned pull sends no hello", offer: pullPinned, peer: realAgent(nil),
			codec: wire.CodecJSON, frames: 0},
		{name: "JSON-pinned stream still asks for the stream", offer: pinned, peer: realAgent(nil),
			codec: wire.CodecJSON, stream: true, seeded: true, frames: 1},
		{name: "stream declined is the caller's fallback, not an error", offer: all,
			peer:  realAgent(func(a *agent.Agent) { a.AllowStream = false }),
			codec: wire.CodecV2, spans: true, seeded: true, frames: 1},
		{name: "spans declined", offer: all,
			peer:  realAgent(func(a *agent.Agent) { a.AllowSpans = false }),
			codec: wire.CodecV2, stream: true, seeded: true, frames: 1},
		{name: "spans asked on a JSON session", offer: all,
			peer:  realAgent(func(a *agent.Agent) { a.Codec = wire.CodecJSON }),
			codec: wire.CodecJSON, stream: true, seeded: true, frames: 1},
		{name: "old agent's error frame", offer: all,
			peer: scripted(func(h *wire.Message) *wire.Message {
				return &wire.Message{Type: wire.TypeError, ID: h.ID, Error: "unknown message type"}
			}),
			codec: wire.CodecJSON, frames: 1},
		{name: "ack that grants v2 nobody offered", offer: pinned,
			peer: scripted(func(h *wire.Message) *wire.Message {
				return &wire.Message{Type: wire.TypeHelloAck, ID: h.ID,
					Hello: &wire.Hello{Codecs: []string{wire.CodecV2}, Spans: true, Stream: true}}
			}),
			codec: wire.CodecJSON, stream: true, frames: 1},
		{name: "ack for another hello", offer: all,
			peer: scripted(func(h *wire.Message) *wire.Message {
				return &wire.Message{Type: wire.TypeHelloAck, ID: h.ID + 1,
					Hello: &wire.Hello{Codecs: []string{wire.CodecV2}, Stream: true}}
			}),
			frames: 1, err: "hello response id 8 for request 7"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn := dialPeer(t, tc.peer)
			s, err := Open(conn, 7, tc.offer, nil, nil)
			if got := conn.writes.Load() / 2; got != tc.frames {
				t.Errorf("client wrote %d hello frames, want %d", got, tc.frames)
			}
			if tc.err != "" {
				if err == nil || !strings.Contains(err.Error(), tc.err) {
					t.Fatalf("Open error = %v, want %q", err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if s.Codec() != tc.codec || s.Spans != tc.spans || s.Stream != tc.stream {
				t.Fatalf("session = (codec %q, spans %v, stream %v), want (%q, %v, %v)",
					s.Codec(), s.Spans, s.Stream, tc.codec, tc.spans, tc.stream)
			}
			if _, seeded := s.SkewOffset(); seeded != tc.seeded {
				t.Errorf("skew seeded = %v, want %v", seeded, tc.seeded)
			}
		})
	}
}

// Hello bytes are counted when counters are passed (the pull client's
// wire_bytes_total) and Send/Recv keep counting on the same pair.
func TestOpenCountsHelloBytes(t *testing.T) {
	reg := telemetry.NewRegistry()
	tx, rx := reg.Counter("tx", ""), reg.Counter("rx", "")
	s, err := Open(dialPeer(t, realAgent(nil)), 1, Offer{}, tx, rx)
	if err != nil {
		t.Fatal(err)
	}
	helloTx, helloRx := tx.Value(), rx.Value()
	if helloTx <= 4 || helloRx <= 4 {
		t.Fatalf("hello bytes not counted: tx %d rx %d", helloTx, helloRx)
	}
	if _, err := s.Send(&wire.Message{Type: wire.TypePing, ID: 2}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Recv(); err != nil {
		t.Fatal(err)
	}
	if tx.Value() <= helloTx || rx.Value() <= helloRx {
		t.Fatalf("request bytes not counted: tx %d→%d rx %d→%d", helloTx, tx.Value(), helloRx, rx.Value())
	}
}

// The push window is [arrival − agent_ns − slack, arrival]: whatever the
// agent's clock claims, no remapped span may end after the frame that
// carried it arrived, and the agent's root re-anchors under the parent.
func TestRemapSpansPushWindowNeverPassesArrival(t *testing.T) {
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(reg, "controller", 8)
	st := telemetry.NewSpanStore(reg, 8, 8, 8)
	tracer.AttachSpanStore(st, 1, 0)

	arrival := time.Now().UnixNano()
	const agentNS = int64(3 * time.Millisecond)
	lo := arrival - agentNS - int64(time.Second)
	spans := []wire.Span{
		{ID: 1, Name: "agent:push", StartNS: arrival + int64(time.Hour), DurNS: agentNS},         // clock far ahead
		{ID: 2, Parent: 1, Name: "procfs:netdev", StartNS: arrival - 10, DurNS: 1000},            // straddles arrival
		{ID: 3, Parent: 1, Name: "log:qemu", StartNS: arrival - int64(time.Hour), DurNS: 1000},   // clock far behind
		{ID: 4, Parent: 9, Name: "orphan", StartNS: arrival - 5000, DurNS: int64(2 * time.Hour)}, // longer than the window
	}
	var s Session // zero skew estimate: offset 0
	qt := tracer.Begin("m0")
	gather := qt.RecordSpan(telemetry.StageGather, time.Duration(agentNS))
	s.RemapSpans(qt, gather, spans, lo, arrival)
	id := qt.ID()
	qt.End()

	tr, ok := st.Get(id)
	if !ok {
		t.Fatal("trace not retained")
	}
	byName := map[string]telemetry.Span{}
	for _, sp := range tr.Spans {
		if sp.Component == "agent" {
			byName[sp.Name] = sp
			if sp.Start < lo || sp.End() > arrival {
				t.Errorf("span %q [%d, %d] escapes the window [%d, %d]", sp.Name, sp.Start, sp.End(), lo, arrival)
			}
		}
	}
	if len(byName) != len(spans) {
		t.Fatalf("remapped %d spans, want %d", len(byName), len(spans))
	}
	root := byName["agent:push"]
	if root.Parent != gather {
		t.Errorf("agent root parent = %d, want the gather span %d", root.Parent, gather)
	}
	if byName["procfs:netdev"].Parent != root.ID || byName["log:qemu"].Parent != root.ID {
		t.Errorf("children not re-parented under the remapped root %d: %+v", root.ID, byName)
	}
	if byName["orphan"].Parent != gather {
		t.Errorf("span with an unknown parent should re-anchor under the gather span")
	}
}
