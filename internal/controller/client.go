// Package controller implements the central PerfSight controller (§4.3):
// it holds the tenant topology (vNet[tenantID].elem[elementID]), routes
// statistics requests to the agents on the right physical servers, and
// offers the operator the Figure 6 utility routines (GetAttr,
// GetThroughput, GetPktLoss, GetAvgPktSize) that diagnostic applications
// build on.
package controller

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"perfsight/internal/agent"
	"perfsight/internal/core"
	"perfsight/internal/session"
	"perfsight/internal/telemetry"
	"perfsight/internal/wire"
)

// AgentClient is the controller's view of one per-server agent.
type AgentClient interface {
	Query(q wire.Query) ([]core.Record, error)
	ListElements() ([]wire.ElementMeta, error)
	Ping() (time.Duration, error)
	Close() error
}

// LocalClient calls an in-process agent directly — used by simulations and
// tests that do not need the TCP path.
type LocalClient struct {
	A *agent.Agent
}

// Query implements AgentClient.
func (c *LocalClient) Query(q wire.Query) ([]core.Record, error) {
	return c.A.Fetch(q.Elements, q.Attrs, q.All)
}

// ListElements implements AgentClient.
func (c *LocalClient) ListElements() ([]wire.ElementMeta, error) {
	ids := c.A.Elements()
	out := make([]wire.ElementMeta, len(ids))
	for i, id := range ids {
		out[i] = wire.ElementMeta{ID: id}
	}
	return out, nil
}

// Ping implements AgentClient.
func (c *LocalClient) Ping() (time.Duration, error) {
	start := time.Now()
	_ = c.A.Machine()
	return time.Since(start), nil
}

// Close implements AgentClient.
func (c *LocalClient) Close() error { return nil }

// TCPClient talks to a remote agent over the wire protocol. Requests are
// serialized on one connection; an established connection that went stale
// is redialed once per request, while a fresh dial failure surfaces
// immediately (the controller's sweep layer owns retry and backoff).
//
// Each fresh connection starts with a codec hello (unless Codec pins
// JSON): peers that grant codec v2 switch the connection to the binary
// encoding, anyone else — including agents that predate v2 and answer
// the hello with an error — transparently stays on JSON.
type TCPClient struct {
	Addr    string
	Timeout time.Duration

	// Codec is the wire codec to offer: wire.CodecV2 (or empty, the
	// default) negotiates v2 with JSON fallback; wire.CodecJSON skips
	// the hello entirely. Set before the first request.
	Codec string

	// Delta requests delta-encoded sweep responses on v2 connections:
	// the agent resends only attrs whose values changed since this
	// connection's previous response. Set before the first request.
	Delta bool

	// Sketch requests sketch-based flow statistics: vswitch records carry
	// one constant-size `flow_sketch` payload attr instead of per-rule
	// counter enumeration. Agents that predate the capability ignore the
	// bit and keep enumerating, so it is safe to always request. Set
	// before the first request.
	Sketch bool

	// Spans requests span-decorated responses on v2 connections: the
	// agent piggybacks a per-channel timing decomposition of every gather
	// on its response frames, which the client remaps into its
	// query-lifecycle trace with skew-corrected timestamps. Agents that
	// predate the capability ignore the bit and keep the plain agent_ns
	// split. Set before the first request.
	Spans bool

	mu         sync.Mutex
	link       *session.Session // nil when disconnected
	negotiated string           // codec of the last connection, for operators
	nextID     uint64
	lastTrace  atomic.Uint64 // trace id of the most recent round trip

	tracer     *telemetry.Tracer
	wireErrors *telemetry.Counter
	reconnects *telemetry.Counter
	agentDur   *telemetry.Histogram
	bytesTx    *telemetry.Counter
	bytesRx    *telemetry.Counter
	negV2      *telemetry.Counter
	negJSON    *telemetry.Counter
}

// NewTCPClient returns a client for the agent at addr.
func NewTCPClient(addr string) *TCPClient {
	return &TCPClient{Addr: addr, Timeout: 5 * time.Second}
}

// SkewOffset reports the live connection's agent-minus-controller clock
// offset estimate in nanoseconds, and whether the link has observed any
// sample. Connection-scoped: a redial starts a fresh estimate. Exposed so
// operators (and the chaos lab) can read the per-agent skew the span
// correction uses.
func (c *TCPClient) SkewOffset() (int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.link == nil {
		return 0, false
	}
	return c.link.SkewOffset()
}

// NegotiatedCodec reports the payload codec of the most recent
// connection ("" before the first successful dial).
func (c *TCPClient) NegotiatedCodec() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.negotiated
}

// EnableTelemetry instruments the client: every round trip becomes a
// query-lifecycle trace (encode → transport → agent_gather → decode) and
// wire failures/reconnects are counted. tracer is typically shared
// across every client of one controller so trace IDs are unique
// fleet-wide; both may be created with Controller.EnableTelemetry.
func (c *TCPClient) EnableTelemetry(reg *telemetry.Registry, tracer *telemetry.Tracer) *TCPClient {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tracer = tracer
	c.wireErrors = reg.Counter("perfsight_controller_wire_errors_total",
		"failed agent round trips (dial, frame, or id mismatch)")
	c.reconnects = reg.Counter("perfsight_controller_reconnects_total",
		"agent connections re-dialed after a stale-connection failure")
	c.agentDur = reg.Histogram("perfsight_controller_agent_gather_duration_ns",
		"agent-reported handling time per query, nanoseconds")
	c.bytesTx = reg.Counter("perfsight_controller_wire_bytes_total",
		"frame bytes exchanged with agents, including the 4-byte length header",
		telemetry.Label{Key: "dir", Value: "tx"})
	c.bytesRx = reg.Counter("perfsight_controller_wire_bytes_total",
		"frame bytes exchanged with agents, including the 4-byte length header",
		telemetry.Label{Key: "dir", Value: "rx"})
	c.negV2 = reg.Counter("perfsight_controller_codec_negotiations_total",
		"connections by negotiated wire codec",
		telemetry.Label{Key: "codec", Value: wire.CodecV2})
	c.negJSON = reg.Counter("perfsight_controller_codec_negotiations_total",
		"connections by negotiated wire codec",
		telemetry.Label{Key: "codec", Value: wire.CodecJSON})
	return c
}

// dropConn closes and forgets the cached session.
func (c *TCPClient) dropConn() {
	if c.link != nil {
		c.link.Conn.Close()
		c.link = nil
	}
}

// connect dials the agent and opens a session on the connection, under
// the same deadline as a request. The hello takes the message ID after the
// request's; a JSON-pinned client sends none and spends no ID.
func (c *TCPClient) connect() error {
	conn, err := net.DialTimeout("tcp", c.Addr, c.Timeout)
	if err != nil {
		return fmt.Errorf("controller: dial agent %s: %w", c.Addr, err)
	}
	if c.Timeout > 0 {
		if err := conn.SetDeadline(time.Now().Add(c.Timeout)); err != nil {
			conn.Close()
			return fmt.Errorf("controller: set deadline for agent %s: %w", c.Addr, err)
		}
	}
	if c.Codec != wire.CodecJSON {
		c.nextID++
	}
	link, err := session.Open(conn, c.nextID,
		session.Offer{Codec: c.Codec, Delta: c.Delta, Sketch: c.Sketch, Spans: c.Spans},
		c.bytesTx, c.bytesRx)
	if err != nil {
		conn.Close()
		return fmt.Errorf("controller: negotiate with agent %s: %w", c.Addr, err)
	}
	c.link = link
	c.negotiated = link.Codec()
	if c.Codec != wire.CodecJSON && c.negV2 != nil {
		// A JSON-pinned client never negotiated, so it counts nothing.
		if c.negotiated == wire.CodecV2 {
			c.negV2.Inc()
		} else {
			c.negJSON.Inc()
		}
	}
	return nil
}

// stageOf names the trace stage a Send or Recv failure belongs to: codec
// when the session's codec refused the message, transport otherwise.
func stageOf(err error, codec telemetry.Stage) telemetry.Stage {
	var ce *session.CodecError
	if errors.As(err, &ce) {
		return codec
	}
	return telemetry.StageTransport
}

func (c *TCPClient) roundTrip(req *wire.Message) (*wire.Message, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	req.ID = c.nextID

	qt := c.tracer.Begin(c.Addr) // nil tracer → inert trace
	defer qt.End()
	req.TraceID = qt.ID()

	// Encoding happens inside try(), after the session is open: the
	// payload codec is connection-scoped (intern tables, delta state), and
	// a redial renegotiates it. failStage names the stage of the most
	// recent failure so the trace's structured status points at connect
	// vs encode vs transport vs decode. Stage timings come back from the
	// session as values, not qt.Time closures — the closure allocates, and
	// this path must stay allocation-free per sweep query.
	failStage := telemetry.StageConnect
	try := func() (*wire.Message, error) {
		if c.link == nil {
			connStart := time.Now()
			if err := c.connect(); err != nil {
				failStage = telemetry.StageConnect
				return nil, err
			}
			qt.Record(telemetry.StageConnect, time.Since(connStart))
		}
		link := c.link
		if c.Timeout > 0 {
			if err := link.Conn.SetDeadline(time.Now().Add(c.Timeout)); err != nil {
				failStage = telemetry.StageTransport
				return nil, fmt.Errorf("controller: set deadline for agent %s: %w", c.Addr, err)
			}
		}
		sent, err := link.Send(req)
		qt.Record(telemetry.StageEncode, sent.Codec)
		if err != nil {
			failStage = stageOf(err, telemetry.StageEncode)
			return nil, err
		}
		resp, got, err := link.Recv()
		if err != nil {
			if failStage = stageOf(err, telemetry.StageDecode); failStage == telemetry.StageDecode {
				qt.Record(telemetry.StageDecode, got.Codec)
			}
			return nil, err
		}
		qt.Record(telemetry.StageDecode, got.Codec)
		transport := got.At.Sub(sent.At)
		// Every response carrying the agent's clock feeds the session's
		// skew estimate: offset = agent_ts − round-trip midpoint − handling/2.
		link.ObserveReply(sent.At, got.At, resp)
		// The synchronous round trip includes the agent's own handling
		// time; subtract what the agent reports so the transport stage
		// is wire time, not gather time.
		var gatherID uint64
		if resp.AgentNS > 0 {
			agentTime := time.Duration(resp.AgentNS)
			if agentTime > transport {
				agentTime = transport
			}
			gatherID = qt.RecordSpan(telemetry.StageGather, agentTime)
			transport -= agentTime
			if c.agentDur != nil {
				c.agentDur.Observe(float64(resp.AgentNS))
			}
		}
		qt.Record(telemetry.StageTransport, transport)
		// The round trip brackets the agent's work exactly, so it is the
		// window its spans are clamped into.
		link.RemapSpans(qt, gatherID, resp.AgentSpans, sent.At.UnixNano(), got.At.UnixNano())
		return resp, nil
	}

	// Only a request that started on an established connection earns the
	// one transparent redial: the cached conn may have gone stale since
	// the last request. A failure on a freshly dialed connection (dial
	// refused, or the agent died mid-handshake) is reported immediately —
	// retry policy with backoff belongs to the sweep layer, not here.
	hadConn := c.link != nil
	resp, err := try()
	if err != nil {
		c.dropConn()
		if hadConn {
			if c.reconnects != nil {
				c.reconnects.Inc()
			}
			resp, err = try()
		}
		if err != nil {
			c.dropConn()
			if c.wireErrors != nil {
				c.wireErrors.Inc()
			}
			qt.Fail(failStage, err)
			return nil, err
		}
	}
	if resp.ID != req.ID {
		c.dropConn()
		if c.wireErrors != nil {
			c.wireErrors.Inc()
		}
		err := fmt.Errorf("controller: agent %s: response id %d for request %d", c.Addr, resp.ID, req.ID)
		qt.Fail(telemetry.StageDecode, err)
		return nil, err
	}
	c.lastTrace.Store(qt.ID())
	return resp, nil
}

// LastTraceID reports the trace id of the client's most recent round
// trip — what an anomaly fired from this agent's records should
// reference.
func (c *TCPClient) LastTraceID() uint64 { return c.lastTrace.Load() }

// Query implements AgentClient.
func (c *TCPClient) Query(q wire.Query) ([]core.Record, error) {
	resp, err := c.roundTrip(&wire.Message{Type: wire.TypeQuery, Query: &q})
	if err != nil {
		return nil, err
	}
	if resp.Type == wire.TypeError {
		return nil, fmt.Errorf("controller: agent %s: %s", c.Addr, resp.Error)
	}
	if resp.Error != "" {
		return resp.Records, fmt.Errorf("controller: agent %s: partial: %s", c.Addr, resp.Error)
	}
	return resp.Records, nil
}

// ListElements implements AgentClient.
func (c *TCPClient) ListElements() ([]wire.ElementMeta, error) {
	resp, err := c.roundTrip(&wire.Message{Type: wire.TypeListElements})
	if err != nil {
		return nil, err
	}
	if resp.Type == wire.TypeError {
		return nil, fmt.Errorf("controller: agent %s: %s", c.Addr, resp.Error)
	}
	return resp.Elements, nil
}

// Ping implements AgentClient.
func (c *TCPClient) Ping() (time.Duration, error) {
	start := time.Now()
	resp, err := c.roundTrip(&wire.Message{Type: wire.TypePing})
	if err != nil {
		return 0, err
	}
	if resp.Type != wire.TypePong {
		return 0, fmt.Errorf("controller: agent %s: unexpected %s to ping", c.Addr, resp.Type)
	}
	return time.Since(start), nil
}

// Close implements AgentClient.
func (c *TCPClient) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.link != nil {
		err := c.link.Conn.Close()
		c.link = nil
		return err
	}
	return nil
}
