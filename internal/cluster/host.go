package cluster

import (
	"hash/fnv"
	"sync"
	"time"

	"perfsight/internal/dataplane"
	"perfsight/internal/sim"
	"perfsight/internal/stream"
)

// Host is an external endpoint outside the simulated cloud — a client on
// the Internet, the cloud gateway, or a remote server. Hosts have no
// virtualization stack: they emit directly onto the wire (bounded by their
// access link) and consume arrivals instantly (an infinitely fast peer),
// which keeps the diagnosed bottlenecks inside the software dataplane
// where the paper's experiments place them.
type Host struct {
	Name string
	// LinkBps bounds egress (0 = unlimited).
	LinkBps float64

	mu        sync.Mutex
	tickSent  int64
	tickCap   int64
	inboxCap  int64
	rxBytes   int64
	rxPackets int64

	// Emissions are double-buffered: commit ranges over what drainOut
	// returned while the feedback it settles may already emit into outQ.
	outQ, drained []dataplane.Batch

	pump    []*stream.Conn
	sources []*HostSource
}

// emit is the stream.Emitter for host-originated connections.
func (h *Host) emit(b dataplane.Batch) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.tickCap > 0 {
		free := h.tickCap - h.tickSent
		if free <= 0 {
			return 0
		}
		if b.Bytes > free {
			b, _ = b.SplitBytes(free) // the rest stays in the conn's send buffer
		}
	}
	h.tickSent += b.Bytes
	h.outQ = append(h.outQ, b)
	return b.Bytes
}

// EmitRaw pushes an open-loop batch from this host onto the wire.
func (h *Host) EmitRaw(b dataplane.Batch) int64 {
	return h.emit(b)
}

// RxFree implements stream.Window: hosts consume instantly, so they always
// advertise a large window.
func (h *Host) RxFree() int64 { return h.inboxCap }

// deliver consumes an arrival.
func (h *Host) deliver(b dataplane.Batch) {
	h.mu.Lock()
	h.rxBytes += b.Bytes
	h.rxPackets += int64(b.Packets)
	h.mu.Unlock()
	b.NotifyDelivered()
}

// ReceivedBytes returns cumulative bytes delivered to this host.
func (h *Host) ReceivedBytes() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.rxBytes
}

// ReceivedPackets returns cumulative packets delivered to this host.
func (h *Host) ReceivedPackets() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.rxPackets
}

// AddSource attaches a closed-loop generator writing into conn at rateBps
// (0 = as fast as the connection accepts). Rate-limited sources carry a
// small deterministic jitter (±2%) seeded from the flow ID, breaking the
// lockstep a noiseless simulation would otherwise impose on every flow.
func (h *Host) AddSource(conn *stream.Conn, rateBps float64) *HostSource {
	hs := fnv.New64a()
	hs.Write([]byte(conn.Flow()))
	s := &HostSource{Conn: conn, RateBps: rateBps, rng: sim.NewRNG(hs.Sum64())}
	h.sources = append(h.sources, s)
	return s
}

// tick resets the link budget, runs sources, and pumps host-side conns.
func (h *Host) tick(now, dt time.Duration) {
	h.mu.Lock()
	h.tickSent = 0
	if h.LinkBps > 0 {
		h.tickCap = int64(h.LinkBps / 8 * dt.Seconds())
	} else {
		h.tickCap = 0
	}
	h.mu.Unlock()

	for _, s := range h.sources {
		s.tick(dt)
	}
	for _, conn := range h.pump {
		conn.Pump(dt)
	}
}

// drainOut collects this tick's wire emissions; the result is valid until
// the next drainOut.
func (h *Host) drainOut() []dataplane.Batch {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.outQ, h.drained = h.drained[:0], h.outQ
	return h.drained
}

// HostSource writes application data into a host-side connection — the
// external HTTP client of the Fig 12 and Fig 13 experiments.
type HostSource struct {
	Conn    *stream.Conn
	RateBps float64 // 0 = unlimited

	generated int64
	paused    bool
	rng       *sim.RNG
}

// Pause stops generation (scenario control).
func (s *HostSource) Pause(p bool) { s.paused = p }

// SetRate changes the offered rate.
func (s *HostSource) SetRate(bps float64) { s.RateBps = bps }

// GeneratedBytes returns bytes accepted by the connection.
func (s *HostSource) GeneratedBytes() int64 { return s.generated }

func (s *HostSource) tick(dt time.Duration) {
	if s.paused {
		return
	}
	want := s.Conn.SendBufFree()
	if s.RateBps > 0 {
		rate := s.RateBps
		if s.rng != nil {
			rate = s.rng.Jitter(rate, 0.02)
		}
		if w := int64(rate / 8 * dt.Seconds()); w < want {
			want = w
		}
	}
	if want > 0 {
		s.generated += s.Conn.Write(want)
	}
}
