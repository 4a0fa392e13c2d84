package ingest

import (
	"context"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perfsight/internal/agent"
	"perfsight/internal/core"
	"perfsight/internal/telemetry"
	"perfsight/internal/wire"
)

// pushElem is a mutable test element: counters advance only when the
// test says so, which is what drives (and tests) the adaptive cadence.
type pushElem struct {
	id   core.ElementID
	kind core.ElementKind

	mu        sync.Mutex
	rx, drops float64
	autoStep  float64 // added to rx on every Snapshot when non-zero
}

func (e *pushElem) ID() core.ElementID     { return e.id }
func (e *pushElem) Kind() core.ElementKind { return e.kind }
func (e *pushElem) Snapshot(ts int64) core.Record {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rx += e.autoStep
	return core.Record{Timestamp: ts, Element: e.id, Attrs: []core.Attr{
		{ID: core.AttrRxBytes, Value: e.rx},
		{ID: core.AttrDropPackets, Value: e.drops},
	}}
}

func (e *pushElem) set(rx, drops float64) {
	e.mu.Lock()
	e.rx, e.drops = rx, drops
	e.mu.Unlock()
}

// collector is a Sink that records every drained batch.
type collector struct {
	mu      sync.Mutex
	batches [][]core.Record
	traces  []uint64
	block   chan struct{} // non-nil: Sink blocks on it (backpressure tests)
}

func (c *collector) sink(_ core.MachineID, recs []core.Record, traceID uint64) {
	if c.block != nil {
		<-c.block
	}
	c.mu.Lock()
	c.batches = append(c.batches, recs)
	c.traces = append(c.traces, traceID)
	c.mu.Unlock()
}

// lastTrace returns the most recent non-zero trace ID the sink saw.
func (c *collector) lastTrace() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := len(c.traces) - 1; i >= 0; i-- {
		if c.traces[i] != 0 {
			return c.traces[i]
		}
	}
	return 0
}

func (c *collector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.batches)
}

func (c *collector) last() []core.Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.batches) == 0 {
		return nil
	}
	return c.batches[len(c.batches)-1]
}

// pushSetup builds a streaming agent and a manager pointed at it. The
// returned cancel stops the manager's Run.
func pushSetup(t *testing.T, elem *pushElem, mutateAgent func(*agent.Agent), cfg Config) (*Manager, func()) {
	t.Helper()
	var now atomic.Int64
	a := agent.New("m0", func() int64 { return now.Add(int64(time.Millisecond)) })
	a.AllowStream = true
	a.AllowDelta = true
	a.CadenceMin = time.Millisecond
	a.CadenceMax = 50 * time.Millisecond
	a.Register(&agent.DirectAdapter{E: elem})
	if mutateAgent != nil {
		mutateAgent(a)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go a.Serve(ln)

	if cfg.CadenceMin == 0 {
		cfg.CadenceMin = time.Millisecond
	}
	if cfg.CadenceMax == 0 {
		cfg.CadenceMax = 50 * time.Millisecond
	}
	cfg.DialTimeout = 2 * time.Second
	if cfg.Redial == 0 {
		cfg.Redial = 10 * time.Millisecond
	}
	cfg.FallbackRetry = 20 * time.Millisecond
	cfg.Delta = true
	m := NewManager(cfg)
	m.Add("m0", ln.Addr().String())

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); m.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })
	return m, cancel
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// A streaming agent's pushed batches land in the sink with exact values,
// and the manager reports the stream established.
func TestPushStreamDelivers(t *testing.T) {
	elem := &pushElem{id: "m0/pnic", kind: core.KindPNIC, autoStep: 7}
	col := &collector{}
	m, _ := pushSetup(t, elem, nil, Config{Sink: col.sink})

	waitFor(t, 5*time.Second, "3 pushed batches", func() bool { return col.count() >= 3 })
	if !m.Streaming("m0") {
		t.Fatal("Streaming(m0) = false with batches arriving")
	}
	recs := col.last()
	if len(recs) != 1 || recs[0].Element != "m0/pnic" {
		t.Fatalf("last batch: %+v", recs)
	}
	// rx advances by exactly autoStep per gather; values must be exact
	// multiples even through the delta chain.
	rx, ok := recs[0].Get(core.AttrRxBytes)
	if !ok || rx <= 0 || rx != float64(int64(rx)) || int64(rx)%7 != 0 {
		t.Fatalf("rx_bytes = %v, want positive multiple of 7", rx)
	}
	h := m.Health()
	if len(h) != 1 || h[0].State != StateStreaming || h[0].Frames < 3 || h[0].Gaps != 0 {
		t.Fatalf("health: %+v", h)
	}
	if h[0].Codec != wire.CodecV2 {
		t.Fatalf("stream codec = %q, want %q", h[0].Codec, wire.CodecV2)
	}
}

// An agent that does not allow streaming (an "old" agent) leaves the
// manager in fallback: no stream, pull sweeper keeps covering it.
func TestPushFallbackOldAgent(t *testing.T) {
	elem := &pushElem{id: "m0/pnic", kind: core.KindPNIC}
	col := &collector{}
	m, _ := pushSetup(t, elem, func(a *agent.Agent) { a.AllowStream = false }, Config{Sink: col.sink})

	waitFor(t, 5*time.Second, "fallback state", func() bool {
		h := m.Health()
		return len(h) == 1 && h[0].State == StateFallback
	})
	if m.Streaming("m0") {
		t.Fatal("Streaming(m0) = true for a pull-only agent")
	}
	if col.count() != 0 {
		t.Fatalf("pull-only agent pushed %d batches", col.count())
	}
}

// A hello ack that answers some other hello (wrong ID) is a broken peer,
// not a stream grant: the stream must redial rather than send
// stream_start on a connection whose negotiation it cannot trust.
func TestPushRejectsHelloAckForAnotherID(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var dials, started atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			dials.Add(1)
			if hello, err := wire.Read(conn); err == nil {
				wire.Write(conn, &wire.Message{Type: wire.TypeHelloAck, ID: hello.ID + 1,
					Hello: &wire.Hello{Stream: true}})
				if _, err := wire.Read(conn); err == nil {
					started.Add(1)
				}
			}
			conn.Close()
		}
	}()

	m := NewManager(Config{Sink: (&collector{}).sink, DialTimeout: 2 * time.Second,
		Redial: 5 * time.Millisecond})
	m.Add("m0", ln.Addr().String())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); m.Run(ctx) }()
	defer func() { cancel(); <-done }()

	waitFor(t, 5*time.Second, "a redial after the bad ack", func() bool { return dials.Load() >= 3 })
	if n := started.Load(); n != 0 {
		t.Fatalf("stream_start sent %d times on a mismatched hello ack", n)
	}
	if h := m.Health()[0]; h.State == StateStreaming || h.State == StateFallback {
		t.Fatalf("state %q after a mismatched hello ack; want connecting/down", h.State)
	}
}

// Killing the streaming connection mid-delta-chain must not corrupt
// values: the redialed connection starts a fresh codec pair, so the
// first frame re-sends full records and every batch stays exact.
func TestPushReconnectMidDeltaChain(t *testing.T) {
	elem := &pushElem{id: "m0/pnic", kind: core.KindPNIC, autoStep: 7}
	col := &collector{}
	m, _ := pushSetup(t, elem, nil, Config{Sink: col.sink})

	waitFor(t, 5*time.Second, "delta chain established", func() bool { return col.count() >= 3 })

	// Kill the live connection out from under both endpoints.
	m.mu.Lock()
	s := m.streams["m0"]
	m.mu.Unlock()
	s.mu.Lock()
	sc := s.cur
	s.mu.Unlock()
	if sc == nil {
		t.Fatal("no live stream connection")
	}
	sc.sess.Conn.Close()

	before := col.count()
	waitFor(t, 5*time.Second, "stream re-established", func() bool {
		return m.Streaming("m0") && col.count() >= before+3
	})
	// Every batch after the redial still decodes to exact counters: a
	// stale delta baseline would shear them off the ×7 lattice.
	col.mu.Lock()
	defer col.mu.Unlock()
	var prev float64
	for i, recs := range col.batches {
		if len(recs) != 1 {
			t.Fatalf("batch %d: %+v", i, recs)
		}
		rx, ok := recs[0].Get(core.AttrRxBytes)
		if !ok || rx != float64(int64(rx)) || int64(rx)%7 != 0 {
			t.Fatalf("batch %d: rx_bytes = %v, want multiple of 7 (stale delta baseline?)", i, rx)
		}
		if rx < prev {
			t.Fatalf("batch %d: rx_bytes went backwards: %v after %v", i, rx, prev)
		}
		prev = rx
	}
}

// A sink that stalls fills the bounded queue: oldest batches drop (and
// are counted), a throttle goes to the agent, and once the sink drains
// the queue the throttle is released.
func TestPushBackpressure(t *testing.T) {
	elem := &pushElem{id: "m0/pnic", kind: core.KindPNIC, autoStep: 7}
	col := &collector{block: make(chan struct{})}
	m, _ := pushSetup(t, elem, nil, Config{
		Sink:      col.sink,
		QueueSize: 4,
		Throttle:  200 * time.Millisecond,
	})

	waitFor(t, 5*time.Second, "throttle at high watermark", func() bool {
		h := m.Health()
		return len(h) == 1 && h[0].Throttled
	})
	waitFor(t, 5*time.Second, "drop-oldest under overflow", func() bool {
		return m.Health()[0].Dropped > 0
	})

	close(col.block) // sink unblocks; the drain empties the queue
	waitFor(t, 5*time.Second, "throttle release at low watermark", func() bool {
		h := m.Health()[0]
		return !h.Throttled && h.QueueLen <= 1
	})
	// The stream survived the whole episode.
	if !m.Streaming("m0") {
		t.Fatal("stream lost during backpressure episode")
	}
}

// Quiescent counters decay the push cadence toward the ceiling; moving
// counters snap it back toward the floor. Observed via frame arrival
// rate over fixed windows.
func TestPushAdaptiveCadence(t *testing.T) {
	elem := &pushElem{id: "m0/pnic", kind: core.KindPNIC} // static counters
	col := &collector{}
	m, _ := pushSetup(t, elem, func(a *agent.Agent) {
		a.CadenceMin = time.Millisecond
		a.CadenceMax = 250 * time.Millisecond
	}, Config{Sink: col.sink, CadenceMin: time.Millisecond, CadenceMax: 250 * time.Millisecond})

	waitFor(t, 5*time.Second, "stream up", func() bool { return m.Streaming("m0") })
	// Let the cadence decay: with nothing changing it doubles each tick
	// (1→2→4→…→250ms), so after the settle window frames are sparse.
	time.Sleep(600 * time.Millisecond)
	quietStart := m.Health()[0].Frames
	time.Sleep(500 * time.Millisecond)
	quietFrames := m.Health()[0].Frames - quietStart

	// Now keep the counters moving: cadence halves back to the floor.
	elem.mu.Lock()
	elem.autoStep = 7
	elem.mu.Unlock()
	time.Sleep(100 * time.Millisecond) // adapt
	busyStart := m.Health()[0].Frames
	time.Sleep(500 * time.Millisecond)
	busyFrames := m.Health()[0].Frames - busyStart

	// Quiescent ≈ 2/s at the 250ms ceiling; busy ≈ hundreds/s at the 1ms
	// floor. 4× is a generous margin for CI jitter.
	if busyFrames < 4*quietFrames || busyFrames < 8 {
		t.Fatalf("cadence did not adapt: quiet window %d frames, busy window %d", quietFrames, busyFrames)
	}
}

// A spans-capable agent's push frames become completed traces: the sink
// sees the frame's trace ID and the span store holds a waterfall with
// the controller-side stages plus the agent's skew-corrected per-channel
// gather spans.
func TestPushSpansTraced(t *testing.T) {
	elem := &pushElem{id: "m0/pnic", kind: core.KindPNIC, autoStep: 7}
	col := &collector{}
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(reg, "ingest", 64)
	st := telemetry.NewSpanStore(reg, 64, 16, 8)
	tr.AttachSpanStore(st, 1, 0)
	before := time.Now().UnixNano()
	pushSetup(t, elem, func(a *agent.Agent) { a.AllowSpans = true },
		Config{Sink: col.sink, Spans: true, Tracer: tr})

	waitFor(t, 5*time.Second, "traced batch", func() bool { return col.lastTrace() != 0 })
	tid := col.lastTrace()
	trace, ok := st.Get(tid)
	if !ok {
		t.Fatalf("span store lost trace %d", tid)
	}
	var sawGather, sawPush, sawChannel bool
	for _, sp := range trace.Spans {
		switch {
		case sp.Component == "ingest" && sp.Name == string(telemetry.StageGather):
			sawGather = true
		case sp.Component == "agent" && sp.Name == "agent:push":
			sawPush = true
		case sp.Component == "agent" && sp.Name == "snapshot:encode":
			sawChannel = true
		}
		if sp.Component == "agent" {
			// Skew-corrected and clamped: agent spans land on the
			// controller timeline, inside the test's wall-clock window.
			now := time.Now().UnixNano()
			if sp.Start < before-int64(time.Minute) || sp.End() > now {
				t.Fatalf("agent span %q outside controller window: start=%d end=%d now=%d",
					sp.Name, sp.Start, sp.End(), now)
			}
		}
	}
	if !sawGather || !sawPush || !sawChannel {
		t.Fatalf("waterfall missing spans (gather=%v push=%v channel=%v): %+v",
			sawGather, sawPush, sawChannel, trace.Spans)
	}
}

// A span-blind agent behind a spans-requesting ingest keeps streaming
// plain frames: no trace IDs, no spans, no errors — the capability
// degrades silently per connection.
func TestPushSpanBlindAgent(t *testing.T) {
	elem := &pushElem{id: "m0/pnic", kind: core.KindPNIC, autoStep: 7}
	col := &collector{}
	reg := telemetry.NewRegistry()
	tr := telemetry.NewTracer(reg, "ingest", 64)
	m, _ := pushSetup(t, elem, nil, // agent default: AllowSpans = false
		Config{Sink: col.sink, Spans: true, Tracer: tr})

	waitFor(t, 5*time.Second, "3 pushed batches", func() bool { return col.count() >= 3 })
	if !m.Streaming("m0") {
		t.Fatal("span-blind agent broke the stream")
	}
	if tid := col.lastTrace(); tid != 0 {
		t.Fatalf("span-blind agent produced trace %d", tid)
	}
}
