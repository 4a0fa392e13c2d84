// Package stream implements the TCP-like transport connecting middleboxes
// in a chain. Propagation of performance problems (§5.2) is entirely a
// product of TCP semantics: a sender that cannot push data WriteBlocks and
// pushes the stall to its predecessors; a source that does not produce
// leaves its successors ReadBlocked. Conn reproduces exactly those
// semantics — bounded send buffer, receiver-window flow control, and AIMD
// congestion control reacting to drops in the software dataplane — while
// the data itself travels as dataplane batches through the instrumented
// element pipeline.
package stream

import (
	"cmp"
	"slices"
	"sync"
	"time"

	"perfsight/internal/core"
	"perfsight/internal/dataplane"
)

// Window receives the conn's advertised receive window: the free space of
// the destination's receive buffer (guest socket or external-host inbox).
type Window interface {
	RxFree() int64
}

// Emitter injects a batch into the source side's transmit path: a VM's
// guest socket send buffer, or an external host's wire queue. It returns
// the bytes accepted (the rest stays in the conn's send buffer).
type Emitter func(b dataplane.Batch) int64

// Config tunes a connection.
type Config struct {
	MSS          int     // segment size, bytes (default 1448)
	InitCwnd     int64   // initial congestion window, bytes
	MinCwnd      int64   // floor after loss
	MaxCwnd      int64   // cap (0 = none)
	SendBufBytes int64   // application send buffer (default 256 KiB)
	Beta         float64 // multiplicative decrease factor (default 0.7)
	// AIFactor scales congestion-avoidance growth (MSS per RTT). The
	// default of 8 approximates CUBIC's fast window rebuild so loss
	// sawteeth have second-scale periods, as on modern Linux stacks.
	AIFactor float64
}

func (c *Config) fill() {
	if c.MSS <= 0 {
		c.MSS = 1448
	}
	if c.InitCwnd <= 0 {
		c.InitCwnd = int64(10 * c.MSS)
	}
	if c.MinCwnd <= 0 {
		c.MinCwnd = int64(2 * c.MSS)
	}
	if c.SendBufBytes <= 0 {
		c.SendBufBytes = 256 << 10
	}
	if c.MaxCwnd == 0 {
		c.MaxCwnd = 8 << 20 // tcp_wmem-style cap keeps AIMD dynamics sane
	}
	if c.Beta <= 0 || c.Beta >= 1 {
		c.Beta = 0.7
	}
	if c.AIFactor <= 0 {
		c.AIFactor = 8
	}
}

// Conn is one unidirectional stream between two endpoints.
type Conn struct {
	flow dataplane.FlowID
	cfg  Config

	mu        sync.Mutex
	sendBuf   int64 // bytes the application has written, not yet emitted
	retrans   int64 // bytes lost in the network awaiting retransmission
	inFlight  int64
	cwnd      float64
	ssthresh  float64
	delivered int64 // cumulative bytes acknowledged
	lost      int64 // cumulative bytes dropped (then retransmitted)
	lastWhere core.ElementID

	// Pacing state: sending is capped near 1.25x the recent delivery rate
	// (fq-style pacing / ACK clocking), which prevents the fluid model from
	// dumping a whole window in one tick and synchronizing losses.
	rateEst       float64 // bytes/s EWMA of delivery rate
	sinceLastPump int64   // bytes delivered since the previous tick's Pump
	paceRemaining int64   // unspent pace credit within the current tick

	// Deferred-feedback mode (parallel lab): Delivered/Dropped calls made
	// during a tick's parallel phases are queued instead of applied, then
	// applied in canonical order by FlushFeedback during the serial commit.
	deferFB   bool
	pendingFB []fbEvent

	emit Emitter
	rwnd Window
}

// fbEvent is one queued feedback notification.
type fbEvent struct {
	drop    bool
	packets int
	bytes   int64
	where   core.ElementID
}

// NewConn builds a connection for the given flow.
func NewConn(flow dataplane.FlowID, cfg Config, emit Emitter, rwnd Window) *Conn {
	cfg.fill()
	return &Conn{
		flow:     flow,
		cfg:      cfg,
		cwnd:     float64(cfg.InitCwnd),
		ssthresh: 1 << 30,
		emit:     emit,
		rwnd:     rwnd,
	}
}

// Flow returns the connection's flow ID.
func (c *Conn) Flow() dataplane.FlowID { return c.flow }

// Write appends application data to the send buffer, returning the bytes
// accepted. Zero with wantBytes > 0 is the WriteBlocked condition.
func (c *Conn) Write(wantBytes int64) (accepted int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	free := c.cfg.SendBufBytes - c.sendBuf
	if free <= 0 {
		return 0
	}
	if wantBytes > free {
		wantBytes = free
	}
	c.sendBuf += wantBytes
	return wantBytes
}

// SendBufFree returns free send-buffer bytes.
func (c *Conn) SendBufFree() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cfg.SendBufBytes - c.sendBuf
}

// Buffered returns unsent bytes (send buffer plus retransmission backlog).
func (c *Conn) Buffered() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sendBuf + c.retrans
}

// Pump emits buffered data as the congestion window, receive window and
// pacing rate allow. Call with the tick length once per tick; additional
// calls within the same tick must pass dt == 0, which reuses the tick's
// remaining pace credit instead of granting new credit.
func (c *Conn) Pump(dt time.Duration) {
	c.mu.Lock()
	if dt > 0 {
		// New tick: refresh the delivery-rate estimate and pace credit.
		inst := float64(c.sinceLastPump) / dt.Seconds()
		c.sinceLastPump = 0
		c.rateEst = 0.9*c.rateEst + 0.1*inst
		pace := int64(1.25 * c.rateEst * dt.Seconds())
		if floor := int64(16 * c.cfg.MSS); pace < floor {
			pace = floor
		}
		c.paceRemaining = pace
	}
	pace := c.paceRemaining
	window := int64(c.cwnd)
	if c.rwnd != nil {
		if r := c.rwnd.RxFree(); r < window {
			window = r
		}
	}
	if c.cfg.MaxCwnd > 0 && window > c.cfg.MaxCwnd {
		window = c.cfg.MaxCwnd
	}
	budget := window - c.inFlight
	if budget > pace {
		budget = pace
	}
	if budget <= 0 || c.sendBuf+c.retrans <= 0 {
		c.mu.Unlock()
		return
	}
	send := c.sendBuf + c.retrans
	if send > budget {
		send = budget
	}
	// Retransmissions take priority.
	fromRetrans := send
	if fromRetrans > c.retrans {
		fromRetrans = c.retrans
	}
	c.retrans -= fromRetrans
	c.sendBuf -= send - fromRetrans
	c.inFlight += send
	c.paceRemaining -= send
	c.mu.Unlock()

	pkts := int((send + int64(c.cfg.MSS) - 1) / int64(c.cfg.MSS))
	if pkts == 0 {
		pkts = 1
	}
	b := dataplane.Batch{Flow: c.flow, Packets: pkts, Bytes: send, FB: c}
	if got := c.emit(b); got < send {
		// Source-side buffer full: reclaim the unemitted remainder.
		c.mu.Lock()
		c.inFlight -= send - got
		c.sendBuf += send - got
		c.paceRemaining += send - got
		c.mu.Unlock()
	}
}

// DeferFeedback switches the connection into deferred-feedback mode: from
// now on Delivered/Dropped only queue, and the owner must call
// FlushFeedback once per tick (from serialized commit code). This is what
// makes a flow whose batches are touched by concurrently-ticking shards
// deterministic — the queue absorbs the nondeterministic arrival order and
// the flush replays it in a canonical one.
func (c *Conn) DeferFeedback() {
	c.mu.Lock()
	c.deferFB = true
	if c.pendingFB == nil {
		c.pendingFB = make([]fbEvent, 0, feedbackPerTick)
	}
	c.mu.Unlock()
}

// feedbackPerTick sizes a deferred connection's feedback queue once, so
// that the tick never grows it: it is the most events one connection
// queues between two flushes, plus one spare. The full sim-fleet shape
// (64 machines, 5,000 ticks, seeds 1, 3 and 7) peaks at 3: a delivery and
// the drops on the way. TestFeedbackQueueNeverGrows pins the bound on a
// smaller fleet. A tick that queued more would still be correct, at the
// cost of growing the queue.
const feedbackPerTick = 4

// FlushFeedback applies queued feedback in canonical order: deliveries
// before drops, then by (where, bytes, packets). Events with equal keys are
// identical operations, so any arrival order collapses to the same state —
// the determinism argument for cross-domain flows. No-op when nothing is
// queued.
func (c *Conn) FlushFeedback() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.pendingFB) == 0 {
		return
	}
	slices.SortFunc(c.pendingFB, func(a, b fbEvent) int {
		if a.drop != b.drop {
			if a.drop {
				return 1
			}
			return -1
		}
		if d := cmp.Compare(a.where, b.where); d != 0 {
			return d
		}
		if d := cmp.Compare(a.bytes, b.bytes); d != 0 {
			return d
		}
		return cmp.Compare(a.packets, b.packets)
	})
	for _, ev := range c.pendingFB {
		if ev.drop {
			c.applyDropped(ev.bytes, ev.where)
		} else {
			c.applyDelivered(ev.bytes)
		}
	}
	c.pendingFB = c.pendingFB[:0]
}

// Delivered implements dataplane.Feedback: data reached the receiver.
func (c *Conn) Delivered(packets int, bytes int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.deferFB {
		c.pendingFB = append(c.pendingFB, fbEvent{packets: packets, bytes: bytes})
		return
	}
	c.applyDelivered(bytes)
}

func (c *Conn) applyDelivered(bytes int64) {
	c.inFlight -= bytes
	if c.inFlight < 0 {
		c.inFlight = 0
	}
	c.delivered += bytes
	c.sinceLastPump += bytes
	if c.cwnd < c.ssthresh {
		c.cwnd += float64(bytes) // slow start
	} else {
		c.cwnd += c.cfg.AIFactor * float64(c.cfg.MSS) * float64(bytes) / c.cwnd // CA
	}
	if c.cfg.MaxCwnd > 0 && c.cwnd > float64(c.cfg.MaxCwnd) {
		c.cwnd = float64(c.cfg.MaxCwnd)
	}
}

// Dropped implements dataplane.Feedback: data was discarded at an element.
func (c *Conn) Dropped(packets int, bytes int64, where core.ElementID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.deferFB {
		c.pendingFB = append(c.pendingFB, fbEvent{drop: true, packets: packets, bytes: bytes, where: where})
		return
	}
	c.applyDropped(bytes, where)
}

func (c *Conn) applyDropped(bytes int64, where core.ElementID) {
	c.inFlight -= bytes
	if c.inFlight < 0 {
		c.inFlight = 0
	}
	c.lost += bytes
	c.retrans += bytes
	c.lastWhere = where
	c.cwnd *= c.cfg.Beta
	c.ssthresh = c.cwnd
	if c.cwnd < float64(c.cfg.MinCwnd) {
		c.cwnd = float64(c.cfg.MinCwnd)
	}
}

// Stats is a point-in-time view of the connection.
type Stats struct {
	Delivered int64
	Lost      int64
	InFlight  int64
	Cwnd      int64
	Buffered  int64
	LastDrop  core.ElementID
}

// Stats returns current counters.
func (c *Conn) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Delivered: c.delivered,
		Lost:      c.lost,
		InFlight:  c.inFlight,
		Cwnd:      int64(c.cwnd),
		Buffered:  c.sendBuf + c.retrans,
		LastDrop:  c.lastWhere,
	}
}

// DeliveredBytes returns cumulative acknowledged bytes.
func (c *Conn) DeliveredBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.delivered
}
