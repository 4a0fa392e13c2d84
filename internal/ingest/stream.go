package ingest

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"perfsight/internal/core"
	"perfsight/internal/session"
	"perfsight/internal/telemetry"
	"perfsight/internal/wire"
)

// Stream states, as reported by Health and the healthz surface.
const (
	StateConnecting = "connecting" // dialing / negotiating
	StateStreaming  = "streaming"  // push stream established
	StateFallback   = "fallback"   // agent lacks the stream capability; pull sweeper covers it
	StateDown       = "down"       // connection failed; backing off before redial
)

// streamConn is one live streaming session and its throttle latch. A
// redial always builds a fresh streamConn, so a delta frame can never be
// applied against the previous connection's baseline.
type streamConn struct {
	sess *session.Session

	// writeMu serializes control-frame Sends (throttle from the reader,
	// release from the drain); the reader's Recv runs beside them.
	writeMu   sync.Mutex
	throttled bool
	nextID    uint64
}

// Stream manages the push stream from one agent: connect, negotiate,
// receive, and redial with backoff. Batches land in q; the Manager's
// drain empties it into the sink.
type Stream struct {
	machine core.MachineID
	addr    string
	cfg     Config
	q       *Queue
	tel     *metrics

	mu      sync.Mutex
	state   string
	cur     *streamConn
	codec   string // negotiated codec of the current/last connection
	frames  uint64
	records uint64
	lastSeq uint64
	gaps    uint64
}

// StreamHealth is one agent stream's observable state, JSON-shaped for
// the healthz surface.
type StreamHealth struct {
	Machine   core.MachineID `json:"machine"`
	Addr      string         `json:"addr"`
	State     string         `json:"state"`
	Codec     string         `json:"codec,omitempty"`
	Frames    uint64         `json:"frames"`
	Records   uint64         `json:"records"`
	LastSeq   uint64         `json:"last_seq"`
	Gaps      uint64         `json:"gaps"`
	Dropped   uint64         `json:"dropped"`
	QueueLen  int            `json:"queue_len"`
	Throttled bool           `json:"throttled"`
}

// Health snapshots the stream's state.
func (s *Stream) Health() StreamHealth {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StreamHealth{
		Machine: s.machine, Addr: s.addr, State: s.state, Codec: s.codec,
		Frames: s.frames, Records: s.records, LastSeq: s.lastSeq, Gaps: s.gaps,
		Dropped: s.q.Dropped(), QueueLen: s.q.Len(),
		Throttled: s.cur != nil && s.throttledLocked(),
	}
}

func (s *Stream) throttledLocked() bool {
	c := s.cur
	if c == nil {
		return false
	}
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	return c.throttled
}

// streaming reports whether the push stream is currently established.
func (s *Stream) streaming() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state == StateStreaming
}

func (s *Stream) setState(state string) {
	s.mu.Lock()
	s.state = state
	s.mu.Unlock()
}

// closeConn force-closes the live connection (shutdown path); the reader
// unblocks with an error and run() observes ctx.
func (s *Stream) closeConn() {
	s.mu.Lock()
	c := s.cur
	s.mu.Unlock()
	if c != nil {
		c.sess.Conn.Close()
	}
}

// run dials and streams until ctx is done. A peer that answers hello
// without the stream grant is left to the pull path and re-probed
// slowly (it may be upgraded in place); connection failures back off on
// the redial interval.
func (s *Stream) run(ctx context.Context) {
	for ctx.Err() == nil {
		fallback, err := s.connectAndStream(ctx)
		if ctx.Err() != nil {
			return
		}
		wait := s.cfg.Redial
		if fallback {
			s.setState(StateFallback)
			if s.tel != nil {
				s.tel.fallbacks.Inc()
			}
			wait = s.cfg.FallbackRetry
		} else {
			s.setState(StateDown)
			if s.tel != nil {
				s.tel.redials.Inc()
			}
			_ = err // connection-scoped; the state machine is the signal
		}
		select {
		case <-ctx.Done():
			return
		case <-time.After(wait):
		}
	}
}

// connectAndStream establishes one streaming connection and receives
// until it breaks. fallback=true means the agent declined the stream
// capability (not an error — the pull sweeper owns that agent).
func (s *Stream) connectAndStream(ctx context.Context) (fallback bool, err error) {
	s.setState(StateConnecting)
	conn, err := net.DialTimeout("tcp", s.addr, s.cfg.DialTimeout)
	if err != nil {
		return false, err
	}
	defer conn.Close()

	if err := conn.SetDeadline(time.Now().Add(s.cfg.DialTimeout)); err != nil {
		return false, err
	}
	sess, err := session.Open(conn, 1, session.Offer{Codec: s.cfg.Codec, Delta: s.cfg.Delta,
		Sketch: s.cfg.Sketch, Spans: s.cfg.Spans, Stream: true}, nil, nil)
	if err != nil {
		return false, err
	}
	if !sess.Stream {
		return true, nil // old agent, or push disabled on its side
	}
	sc := &streamConn{sess: sess, nextID: 1}

	// Convert the connection: after stream_start the agent owns the send
	// direction and we own reading.
	q := s.cfg.Query
	if _, err := sess.Send(&wire.Message{Type: wire.TypeStreamStart, ID: 2, Query: &q,
		Stream: &wire.StreamInfo{
			CadenceMinNS: s.cfg.CadenceMin.Nanoseconds(),
			CadenceMaxNS: s.cfg.CadenceMax.Nanoseconds(),
		}}); err != nil {
		return false, err
	}

	s.mu.Lock()
	s.cur = sc
	s.codec = sess.Codec()
	s.state = StateStreaming
	s.lastSeq = 0
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.cur = nil
		s.mu.Unlock()
	}()
	return false, s.receive(ctx, sc)
}

// liveness is how long the receiver waits for a frame before declaring
// the connection dead: the agent heartbeats at least at CadenceMax (or
// the throttle period when backpressured above it), so several missed
// heartbeats mean the peer is gone.
func (s *Stream) liveness(sc *streamConn) time.Duration {
	d := s.cfg.CadenceMax
	sc.writeMu.Lock()
	throttled := sc.throttled
	sc.writeMu.Unlock()
	if throttled && s.cfg.Throttle > d {
		d = s.cfg.Throttle
	}
	return 3*d + time.Second
}

// receive is the stream read loop: decode stream_data frames, track
// sequence continuity, enqueue, and send a throttle when the queue
// crosses its high watermark.
func (s *Stream) receive(ctx context.Context, sc *streamConn) error {
	for ctx.Err() == nil {
		sc.sess.Conn.SetReadDeadline(time.Now().Add(s.liveness(sc)))
		msg, got, err := sc.sess.Recv()
		if err != nil {
			return err
		}
		switch msg.Type {
		case wire.TypeStreamData:
			var seq uint64
			if msg.Stream != nil {
				seq = msg.Stream.Seq
			}
			var traceID uint64
			if s.cfg.Tracer != nil && len(msg.AgentSpans) > 0 {
				traceID = s.ingestSpans(sc.sess, msg, got)
			}
			s.mu.Lock()
			s.frames++
			s.records += uint64(len(msg.Records))
			if s.lastSeq != 0 && seq != s.lastSeq+1 {
				s.gaps++
				if s.tel != nil {
					s.tel.gaps.Inc()
				}
			}
			s.lastSeq = seq
			s.mu.Unlock()
			if s.tel != nil {
				s.tel.frames.Inc()
				s.tel.records.Add(uint64(len(msg.Records)))
			}
			// Decode materializes fresh record storage per frame, so the
			// batch owns its memory; nothing aliases the codec scratch.
			if s.q.Push(Batch{Machine: s.machine, Seq: seq, TraceID: traceID, Records: msg.Records}) {
				if s.tel != nil {
					s.tel.drops.Inc()
				}
			}
			if s.q.Len() >= s.q.high() {
				s.throttle(sc, s.cfg.Throttle)
			}
		case wire.TypeError:
			return fmt.Errorf("ingest: agent %s: %s", s.addr, msg.Error)
		default:
			// Tolerated: unknown frame types on the stream are skipped so
			// protocol additions stay backward compatible.
		}
	}
	return ctx.Err()
}

// pushClampSlackNS widens the clamp window for push-frame spans. A pull
// query's round trip brackets the agent's work exactly; a push frame only
// bounds it from above (the gather finished before the frame arrived), so
// the lower bound is reconstructed as arrival minus the reported gather
// time minus this slack for transport latency and residual skew error.
const pushClampSlackNS = int64(time.Second)

// ingestSpans turns one spans-bearing stream_data frame into a completed
// trace: an agent_gather stage sized by the agent's reported elapsed
// time, the frame's decode cost, and the agent's frame-local spans
// re-anchored under the gather stage, clamped so a nonsense agent clock
// cannot place a span after the frame that carried it (got.At is the
// frame's arrival on the controller clock). Returns the trace ID for the
// batch to carry to the sink.
func (s *Stream) ingestSpans(sess *session.Session, msg *wire.Message, got session.Timing) uint64 {
	qt := s.cfg.Tracer.Begin(string(s.machine))
	gatherID := qt.RecordSpan(telemetry.StageGather, time.Duration(msg.AgentNS))
	qt.Record(telemetry.StageDecode, got.Codec)
	hi := got.At.UnixNano()
	sess.RemapSpans(qt, gatherID, msg.AgentSpans, hi-msg.AgentNS-pushClampSlackNS, hi)
	id := qt.ID()
	qt.End()
	return id
}

// throttle asks the agent to raise its cadence floor to d (0 releases).
// Idempotent per connection: repeated crossings of the same watermark
// send one control frame.
func (s *Stream) throttle(sc *streamConn, d time.Duration) {
	sc.writeMu.Lock()
	defer sc.writeMu.Unlock()
	want := d > 0
	if sc.throttled == want {
		return
	}
	sc.nextID++
	sc.sess.Conn.SetWriteDeadline(time.Now().Add(s.cfg.DialTimeout))
	if _, err := sc.sess.Send(&wire.Message{Type: wire.TypeStreamControl, ID: sc.nextID,
		Stream: &wire.StreamInfo{ThrottleNS: d.Nanoseconds()}}); err != nil {
		sc.sess.Conn.Close() // reader sees the broken conn and redials
		return
	}
	sc.throttled = want
	if s.tel != nil {
		if want {
			s.tel.throttles.Inc()
		} else {
			s.tel.releases.Inc()
		}
	}
}

// drain empties the queue into the sink and releases backpressure once
// the queue recedes to the low watermark.
func (s *Stream) drain(ctx context.Context) {
	for {
		b, ok := s.q.Take(ctx)
		if !ok {
			return
		}
		s.cfg.Sink(b.Machine, b.Records, b.TraceID)
		if s.q.Len() <= s.q.low() {
			s.mu.Lock()
			sc := s.cur
			s.mu.Unlock()
			if sc != nil {
				s.throttle(sc, 0)
			}
		}
	}
}
