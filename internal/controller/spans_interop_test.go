package controller

// Mixed-version interop for the trace spine: the hello Spans bit decides
// per connection whether v2 response frames carry the agent's
// per-channel span decomposition. A span-blind peer on either side of
// the connection must degrade to plain responses — same records, no
// spans, no errors.

import (
	"net"
	"strings"
	"testing"
	"time"

	"perfsight/internal/agent"
	"perfsight/internal/machine"
	"perfsight/internal/middlebox"
	"perfsight/internal/telemetry"
	"perfsight/internal/wire"
)

// spansAgentSetup serves a real machine-backed agent over TCP and
// returns an instrumented client whose tracer retains every trace's
// span forest.
func spansAgentSetup(t *testing.T, allowSpans bool, mutate func(*TCPClient)) (*TCPClient, *telemetry.SpanStore) {
	t.Helper()
	m := machine.New(machine.DefaultConfig("m0"))
	sink := middlebox.NewSink("m0/vm0/app", 1e9)
	m.AddVM("vm0", 1.0, 1e9, sink)
	a, err := agent.Build(m, agent.BuildOptions{QEMULogDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	a.AllowSpans = allowSpans
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go a.Serve(ln)

	c := NewTCPClient(ln.Addr().String())
	c.Timeout = 2 * time.Second
	c.Spans = true
	if mutate != nil {
		mutate(c)
	}
	t.Cleanup(func() { c.Close() })

	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(reg, "controller", 64)
	st := telemetry.NewSpanStore(reg, 64, 16, 8)
	tracer.AttachSpanStore(st, 1, 0)
	c.EnableTelemetry(reg, tracer)
	return c, st
}

// queryTrace runs one query through the client and returns the retained
// trace it produced.
func queryTrace(t *testing.T, c *TCPClient, st *telemetry.SpanStore) telemetry.StoredTrace {
	t.Helper()
	recs, err := c.Query(wire.Query{All: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("query returned no records")
	}
	tid := c.LastTraceID()
	if tid == 0 {
		t.Fatal("no trace id recorded for the round trip")
	}
	tr, ok := st.Get(tid)
	if !ok {
		t.Fatalf("span store lost trace %d", tid)
	}
	return tr
}

// agentSpans filters a trace down to its remote (agent-side) spans.
func agentSpans(tr telemetry.StoredTrace) []telemetry.Span {
	var out []telemetry.Span
	for _, sp := range tr.Spans {
		if sp.Component == "agent" {
			out = append(out, sp)
		}
	}
	return out
}

// Both sides span-aware: the query's trace interleaves controller
// stages with the agent's per-channel decomposition — a root dispatch
// span re-anchored under the controller's gather stage, channel
// children beneath it, every timestamp clamped inside the round trip.
func TestInteropSpansNegotiated(t *testing.T) {
	before := time.Now().UnixNano()
	c, st := spansAgentSetup(t, true, nil)
	tr := queryTrace(t, c, st)
	if got := c.NegotiatedCodec(); got != wire.CodecV2 {
		t.Fatalf("negotiated %q; want %q", got, wire.CodecV2)
	}
	remote := agentSpans(tr)
	// One child per collection channel, however many elements each serves:
	// this machine's 20 adapters sit on netdev, softnet, ovs, qemu log and
	// in-process snapshots.
	if len(remote) != 6 {
		t.Fatalf("want a dispatch root plus five channel spans, got %d: %+v", len(remote), remote)
	}
	byID := make(map[uint64]telemetry.Span, len(tr.Spans))
	for _, sp := range tr.Spans {
		byID[sp.ID] = sp
	}
	var sawDispatch, sawChannel bool
	now := time.Now().UnixNano()
	for _, sp := range remote {
		if sp.Name == "agent:dispatch" {
			sawDispatch = true
		}
		if strings.Contains(sp.Name, ":") && sp.Name != "agent:dispatch" {
			sawChannel = true
		}
		// Remapped parents must resolve to spans actually in the trace;
		// the agent's frame-local IDs never leak through.
		parent, ok := byID[sp.Parent]
		if sp.Parent == 0 || !ok {
			t.Fatalf("agent span %q has unresolved parent %d", sp.Name, sp.Parent)
		}
		_ = parent
		// Skew-corrected and clamped into the round trip: nothing lands
		// outside the test's own wall-clock window.
		if sp.Start < before || sp.End() > now {
			t.Fatalf("agent span %q outside round trip: start=%d end=%d window=[%d,%d]",
				sp.Name, sp.Start, sp.End(), before, now)
		}
	}
	if !sawDispatch || !sawChannel {
		t.Fatalf("missing dispatch root or channel span: %+v", remote)
	}
}

// A span-blind agent (an old build) behind a span-requesting controller
// keeps answering plain v2 responses: the trace exists with its
// controller-side stages, but carries no agent spans.
func TestInteropSpanBlindAgent(t *testing.T) {
	c, st := spansAgentSetup(t, false, nil)
	tr := queryTrace(t, c, st)
	if got := c.NegotiatedCodec(); got != wire.CodecV2 {
		t.Fatalf("negotiated %q; want %q", got, wire.CodecV2)
	}
	if remote := agentSpans(tr); len(remote) != 0 {
		t.Fatalf("span-blind agent produced spans: %+v", remote)
	}
	if tr.SpanCount == 0 {
		t.Fatal("controller-side stages missing from the trace")
	}
}

// A span-blind controller (Spans never requested) against a
// span-capable agent gets plain responses — the agent only decorates
// frames for sessions that asked.
func TestInteropSpanBlindController(t *testing.T) {
	c, st := spansAgentSetup(t, true, func(c *TCPClient) { c.Spans = false })
	tr := queryTrace(t, c, st)
	if got := c.NegotiatedCodec(); got != wire.CodecV2 {
		t.Fatalf("negotiated %q; want %q", got, wire.CodecV2)
	}
	if remote := agentSpans(tr); len(remote) != 0 {
		t.Fatalf("agent pushed spans to a controller that never asked: %+v", remote)
	}
}

// A JSON-pinned controller skips negotiation entirely; the span
// capability needs the v2 session, so queries stay plain JSON and the
// trace holds controller stages only.
func TestInteropSpansJSONController(t *testing.T) {
	c, st := spansAgentSetup(t, true, func(c *TCPClient) { c.Codec = wire.CodecJSON })
	tr := queryTrace(t, c, st)
	if got := c.NegotiatedCodec(); got != wire.CodecJSON {
		t.Fatalf("negotiated %q; want %q", got, wire.CodecJSON)
	}
	if remote := agentSpans(tr); len(remote) != 0 {
		t.Fatalf("JSON session carried spans: %+v", remote)
	}
}

// v2Peer is a one-connection agent stand-in that grants codec v2 on the
// hello, reads one request, and then runs after on the connection.
func v2Peer(t *testing.T, after func(net.Conn)) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		hello, err := wire.Read(conn)
		if err != nil {
			return
		}
		wire.Write(conn, &wire.Message{Type: wire.TypeHelloAck, ID: hello.ID,
			Hello: &wire.Hello{Codecs: []string{wire.CodecV2}}})
		if _, err := wire.ReadFrame(conn); err != nil {
			return
		}
		after(conn)
	}()
	return ln.Addr().String()
}

// The failure path records a structured status naming the stage that
// failed: connect (nothing listens), encode (the session codec refuses the
// message), transport (the peer closes after the request) or decode (the
// peer answers garbage under the negotiated codec).
func TestTraceStructuredFailure(t *testing.T) {
	ping := &wire.Message{Type: wire.TypePing}
	cases := []struct {
		stage telemetry.Stage
		addr  func(t *testing.T) string
		req   *wire.Message
	}{
		{telemetry.StageConnect, func(*testing.T) string { return "127.0.0.1:1" }, ping},
		{telemetry.StageEncode, func(t *testing.T) string { return v2Peer(t, func(net.Conn) {}) },
			&wire.Message{Type: "no-such-type"}},
		{telemetry.StageTransport, func(t *testing.T) string { return v2Peer(t, func(net.Conn) {}) }, ping},
		{telemetry.StageDecode, func(t *testing.T) string {
			return v2Peer(t, func(conn net.Conn) {
				wire.WriteFrame(conn, []byte("not a v2 frame"))
				wire.ReadFrame(conn) // hold the connection until the client drops it
			})
		}, ping},
	}
	for _, tc := range cases {
		t.Run(string(tc.stage), func(t *testing.T) {
			reg := telemetry.NewRegistry()
			tracer := telemetry.NewTracer(reg, "controller", 8)
			c := NewTCPClient(tc.addr(t))
			c.Timeout = 2 * time.Second
			c.EnableTelemetry(reg, tracer)
			t.Cleanup(func() { c.Close() })
			if _, err := c.roundTrip(tc.req); err == nil {
				t.Fatal("round trip succeeded")
			}
			recent := tracer.Recent()
			if len(recent) == 0 {
				t.Fatal("failed query left no trace summary")
			}
			sum := recent[len(recent)-1]
			if !sum.Failed() || sum.FailStage != tc.stage {
				t.Fatalf("structured status = (err=%q, stage=%q), want %s failure", sum.Err, sum.FailStage, tc.stage)
			}
		})
	}
}
