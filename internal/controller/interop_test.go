package controller

// Mixed-version interop: a codec-v2 controller must work against a
// JSON-only agent (and vice versa), negotiating down transparently, and
// the sweep layer's retry path must survive a connection whose codec
// state desynchronizes mid-stream.

import (
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"testing"
	"time"

	"perfsight/internal/agent"
	"perfsight/internal/core"
	"perfsight/internal/wire"
)

// tcpSetup is testSetup over a real TCP agent: counters grow linearly
// with a virtual clock shared by agent and controller.
func tcpSetup(t *testing.T, mutate func(a *agent.Agent, c *TCPClient)) (*Controller, *TCPClient) {
	t.Helper()
	var now int64
	a := agent.New("m0", func() int64 { return now })
	a.Register(&agent.DirectAdapter{E: &fakeElem{id: "m0/pnic", kind: core.KindPNIC,
		attrs: func(ts int64) []core.Attr {
			s := float64(ts) / 1e9
			return []core.Attr{
				{ID: core.AttrRxBytes, Value: 1000 * s},
				{ID: core.AttrRxPackets, Value: 10 * s},
				{ID: core.AttrDropPackets, Value: 2 * s},
			}
		}}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })

	c := NewTCPClient(ln.Addr().String())
	c.Timeout = 2 * time.Second
	if mutate != nil {
		mutate(a, c)
	}
	go a.Serve(ln)
	t.Cleanup(func() { c.Close() })

	topo := core.NewTopology()
	topo.Net("t1").Add("m0/pnic", core.ElementInfo{Machine: "m0", Kind: core.KindPNIC})
	ctl := New(topo)
	ctl.Wait = func(d time.Duration) { now += int64(d) }
	ctl.RegisterAgent("m0", c)
	return ctl, c
}

func sampleOnce(t *testing.T, ctl *Controller) core.Record {
	t.Helper()
	recs, err := ctl.Sample("t1", []core.ElementID{"m0/pnic"})
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := recs["m0/pnic"]
	if !ok || len(rec.Attrs) != 3 {
		t.Fatalf("sample: %+v", recs)
	}
	return rec
}

// A v2 controller against a JSON-only agent negotiates down to JSON and
// completes a full Sample sweep.
func TestInteropV2ControllerJSONAgent(t *testing.T) {
	ctl, c := tcpSetup(t, func(a *agent.Agent, _ *TCPClient) {
		a.Codec = wire.CodecJSON
	})
	sampleOnce(t, ctl)
	if got := c.NegotiatedCodec(); got != wire.CodecJSON {
		t.Fatalf("negotiated %q; want fallback to %q", got, wire.CodecJSON)
	}
}

// A JSON-pinned controller against a v2-capable agent never sends a
// hello; the agent stays on JSON for that connection.
func TestInteropJSONControllerV2Agent(t *testing.T) {
	ctl, c := tcpSetup(t, func(_ *agent.Agent, c *TCPClient) {
		c.Codec = wire.CodecJSON
	})
	sampleOnce(t, ctl)
	if got := c.NegotiatedCodec(); got != wire.CodecJSON {
		t.Fatalf("negotiated %q; want %q", got, wire.CodecJSON)
	}
}

// Both ends v2: the sweep runs on the binary codec.
func TestInteropV2BothEnds(t *testing.T) {
	ctl, c := tcpSetup(t, nil)
	sampleOnce(t, ctl)
	if got := c.NegotiatedCodec(); got != wire.CodecV2 {
		t.Fatalf("negotiated %q; want %q", got, wire.CodecV2)
	}
}

// Delta mode: consecutive sweeps on one connection must decode to the
// same values a full encoding would, even though only changed attrs are
// on the wire after the first response.
func TestInteropV2DeltaSweeps(t *testing.T) {
	ctl, c := tcpSetup(t, func(a *agent.Agent, c *TCPClient) {
		a.AllowDelta = true
		c.Delta = true
	})
	prev := sampleOnce(t, ctl)
	for i := 1; i <= 3; i++ {
		ctl.Wait(time.Second) // advance the shared virtual clock
		rec := sampleOnce(t, ctl)
		want := 1000 * float64(i)
		got, ok := rec.Get(core.AttrRxBytes)
		if !ok || got != want {
			t.Fatalf("sweep %d: rx_bytes = %v (ok=%v); want %v", i, got, ok, want)
		}
		// The previous sweep's record must keep its own values: decoded
		// records may not alias codec-internal delta state.
		if pv, _ := prev.Get(core.AttrRxBytes); pv != 1000*float64(i-1) {
			t.Fatalf("sweep %d corrupted previous record: rx_bytes = %v", i, pv)
		}
		prev = rec
	}
	if got := c.NegotiatedCodec(); got != wire.CodecV2 {
		t.Fatalf("negotiated %q; want %q", got, wire.CodecV2)
	}
}

// Killing the connection mid-delta-chain and redialing must yield
// byte-exact records: the redial renegotiates a fresh codec pair on both
// ends (conn and codec are bound in one session.Session), so the
// first response after reconnect re-sends full records rather than
// applying deltas against the dead connection's baseline.
func TestInteropRedialMidDeltaChainExactValues(t *testing.T) {
	ctl, c := tcpSetup(t, func(a *agent.Agent, c *TCPClient) {
		a.AllowDelta = true
		c.Delta = true
	})
	// Establish a delta chain: first sweep full, second sweep delta.
	sampleOnce(t, ctl)
	ctl.Wait(time.Second)
	sampleOnce(t, ctl)

	// Kill the established connection out from under the client — the
	// next sweep's write (or read) fails and earns the one transparent
	// redial, which must renegotiate codec state from scratch.
	c.mu.Lock()
	if c.link == nil {
		c.mu.Unlock()
		t.Fatal("no cached link after two sweeps")
	}
	c.link.Conn.Close()
	c.mu.Unlock()

	for i := 2; i <= 4; i++ {
		ctl.Wait(time.Second)
		rec := sampleOnce(t, ctl)
		// The virtual clock says exactly what every counter must read;
		// any stale delta baseline shears values off these lattices.
		s := float64(i)
		for _, want := range []struct {
			id core.AttrID
			v  float64
		}{
			{core.AttrRxBytes, 1000 * s},
			{core.AttrRxPackets, 10 * s},
			{core.AttrDropPackets, 2 * s},
		} {
			if got, ok := rec.Get(want.id); !ok || got != want.v {
				t.Fatalf("sweep %d after redial: %s = %v,%v; want exactly %v",
					i, core.AttrName(want.id), got, ok, want.v)
			}
		}
	}
	if got := c.NegotiatedCodec(); got != wire.CodecV2 {
		t.Fatalf("renegotiated %q; want %q", got, wire.CodecV2)
	}
}

// An old JSON-only agent may report attribute names the controller's
// schema has never heard of (a newer middlebox build, per-flow counters).
// The names must survive decode — resolved to extension AttrIDs with
// values intact and no attribute dropped — and re-emerge verbatim on the
// JSON surface. The response frame is raw JSON written byte-by-byte, so
// the names are genuinely first seen by the decode path, not registered
// as a side effect of building the fixture.
func TestInteropOldAgentUnknownAttrs(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		for {
			msg, err := wire.Read(conn)
			if err != nil {
				return
			}
			switch msg.Type {
			case wire.TypeHello:
				// Old agent: hello is an unknown message type.
				wire.Write(conn, &wire.Message{Type: wire.TypeError, ID: msg.ID,
					Error: "unknown message type"})
			case wire.TypeQuery:
				raw := fmt.Sprintf(`{"type":"response","id":%d,"machine":"m0",`+
					`"records":[{"ts":5,"element":"m0/vm1/app","attrs":[`+
					`{"name":"rx_packets","value":10},`+
					`{"name":"fw_active_sessions","value":37},`+
					`{"name":"old_agent_only_sessions_peak","value":41.5}]}]}`, msg.ID)
				wire.WriteFrame(conn, []byte(raw))
			default:
				wire.Write(conn, &wire.Message{Type: wire.TypeError, ID: msg.ID, Error: "unexpected"})
			}
		}
	}()

	if _, known := core.LookupAttr("fw_active_sessions"); known {
		t.Fatal("fixture name already registered; test would be vacuous")
	}

	c := NewTCPClient(ln.Addr().String())
	c.Timeout = 2 * time.Second
	defer c.Close()
	topo := core.NewTopology()
	topo.Net("t1").Add("m0/vm1/app", core.ElementInfo{Machine: "m0", Kind: core.KindMiddlebox})
	ctl := New(topo)
	ctl.RegisterAgent("m0", c)

	recs, err := ctl.Sample("t1", []core.ElementID{"m0/vm1/app"})
	if err != nil {
		t.Fatal(err)
	}
	rec := recs["m0/vm1/app"]
	if len(rec.Attrs) != 3 {
		t.Fatalf("attrs lost in decode: %+v", rec)
	}
	// The unknown names resolved to extension IDs, values intact.
	for _, want := range []struct {
		name  string
		value float64
	}{{"rx_packets", 10}, {"fw_active_sessions", 37}, {"old_agent_only_sessions_peak", 41.5}} {
		id, ok := core.LookupAttr(want.name)
		if !ok {
			t.Fatalf("%q not registered by decode", want.name)
		}
		if want.name != "rx_packets" && core.IsSchemaAttr(id) {
			t.Fatalf("%q resolved to schema ID %d", want.name, id)
		}
		if v, ok := rec.Get(id); !ok || v != want.value {
			t.Fatalf("%s = %v,%v; want %v", want.name, v, ok, want.value)
		}
	}
	// Round-tripping through JSON emits the original names, not IDs.
	b, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"fw_active_sessions", "old_agent_only_sessions_peak"} {
		if !strings.Contains(string(b), `"name":"`+name+`"`) {
			t.Fatalf("JSON surface lost %q: %s", name, b)
		}
	}
}

// A peer that grants v2 and then emits frames the codec cannot parse
// desynchronizes the connection. The client drops it, and the sweep
// layer's retry redials; a second connection where the peer behaves as
// an old JSON-only agent must complete the sweep.
func TestSweepSurvivesMidConnectionCodecMismatch(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	conns := make(chan net.Conn, 4)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conns <- conn
		}
	}()
	go func() {
		// First connection: ack v2, then break the stream.
		conn := <-conns
		msg, err := wire.Read(conn)
		if err == nil && msg.Type == wire.TypeHello {
			wire.Write(conn, &wire.Message{Type: wire.TypeHelloAck, ID: msg.ID,
				Hello: &wire.Hello{Codecs: []string{wire.CodecV2}}})
			if _, err := wire.ReadFrame(conn); err == nil { // the v2 query
				wire.WriteFrame(conn, []byte(`{"not":"v2"}`)) // undecodable under v2
			}
		}
		conn.Close()
		// Second connection: behave as an agent that predates v2 — a hello
		// is an unknown message type, answered with a JSON error frame.
		conn = <-conns
		for {
			msg, err := wire.Read(conn)
			if err != nil {
				conn.Close()
				return
			}
			switch msg.Type {
			case wire.TypeHello:
				wire.Write(conn, &wire.Message{Type: wire.TypeError, ID: msg.ID,
					Error: "unknown message type"})
			case wire.TypeQuery:
				wire.Write(conn, &wire.Message{Type: wire.TypeResponse, ID: msg.ID, Machine: "m0",
					Records: []core.Record{{Timestamp: 1, Element: "m0/pnic",
						Attrs: []core.Attr{{ID: core.AttrRxBytes, Value: 42}}}}})
			default:
				wire.Write(conn, &wire.Message{Type: wire.TypeError, ID: msg.ID, Error: "unexpected"})
			}
		}
	}()

	c := NewTCPClient(ln.Addr().String())
	c.Timeout = 2 * time.Second
	defer c.Close()
	topo := core.NewTopology()
	topo.Net("t1").Add("m0/pnic", core.ElementInfo{Machine: "m0", Kind: core.KindPNIC})
	ctl := New(topo)
	ctl.Sweep = SweepConfig{Retries: 1, BackoffBase: time.Millisecond}
	ctl.RegisterAgent("m0", c)

	recs, err := ctl.Sample("t1", []core.ElementID{"m0/pnic"})
	if err != nil {
		t.Fatalf("sweep did not survive codec mismatch: %v", err)
	}
	if v, _ := recs["m0/pnic"].Get(core.AttrRxBytes); v != 42 {
		t.Fatalf("rx_bytes = %v; want 42", v)
	}
	if got := c.NegotiatedCodec(); got != wire.CodecJSON {
		t.Fatalf("negotiated %q after fallback; want %q", got, wire.CodecJSON)
	}
}
