package agent

import (
	"errors"
	"fmt"
	"io"
	"log"
	"net"
	"os"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"perfsight/internal/core"
	"perfsight/internal/wire"
)

// Agent gathers statistics from the elements of one physical server and
// answers controller queries. To reduce overhead it pulls counter values
// from elements only when queried (§4.2).
type Agent struct {
	machine core.MachineID
	clock   func() int64

	mu       sync.RWMutex
	adapters map[core.ElementID]Adapter

	// tempLogDir is the QEMU log directory Build made because its caller
	// named none; Close removes it.
	tempLogDir string

	// sources holds the idle per-fetch *Sources, so a steady-state fetch
	// reuses an earlier one's parse scratch; as many exist as fetches have
	// ever run at once. (Not a sync.Pool: a collection would empty it, and
	// rebuilding the scratch costs what sharing it saves.)
	sourcesMu sync.Mutex
	sources   []*Sources

	// queryCount/busyNS are atomics, not mu-guarded: concurrent Fetches
	// only hold RLock and must not serialize on overhead accounting.
	queryCount atomic.Uint64
	busyNS     atomic.Int64

	// ReadTimeout bounds how long a served connection may sit between
	// requests before the agent closes it, so a half-open controller
	// cannot park a handler goroutine forever. 0 = no deadline. Set
	// before Serve.
	ReadTimeout time.Duration

	// MaxConns caps concurrent controller connections; connections over
	// the cap are closed at accept time rather than queued. 0 = no cap.
	// Set before Serve.
	MaxConns int

	// Codec selects the wire codecs offered to controllers: wire.CodecV2
	// (or empty, the default) grants the binary v2 codec to peers that
	// negotiate it and keeps JSON for everyone else; wire.CodecJSON
	// disables v2 entirely. Set before Serve.
	Codec string

	// AllowDelta permits delta-encoded responses on v2 connections whose
	// controller requested them: only attrs whose values changed since
	// the connection's previous response are resent. Set before Serve.
	AllowDelta bool

	// AllowStream permits controllers to convert a connection into a
	// push stream (stream_start): the agent then sends stream_data
	// batches at an adaptive cadence instead of answering polls. Set
	// before Serve.
	AllowStream bool

	// AllowSketch advertises sketch-based flow statistics to controllers
	// that request them. Peers that never negotiate the capability — old
	// controllers, JSON peers that skip the hello — transparently get the
	// legacy per-rule enumeration from adapters that can produce it
	// (LegacyFlowFetcher). Set before Serve.
	AllowSketch bool

	// AllowSpans advertises span-decorated responses: v2 connections that
	// negotiate the capability get a per-channel timing decomposition of
	// every gather piggybacked on response and stream_data frames. Peers
	// that never ask keep the plain agent_ns split. Set before Serve.
	AllowSpans bool

	// CadenceMin/CadenceMax bound the adaptive push cadence. CadenceMin
	// is a floor the controller cannot undercut; CadenceMax is the
	// quiescent heartbeat period. Zero values use DefaultCadenceMin/Max.
	// Set before Serve.
	CadenceMin time.Duration
	CadenceMax time.Duration

	// tel holds the optional self-telemetry block (see EnableTelemetry);
	// nil means uninstrumented, and every hot-path check is one atomic
	// pointer load.
	tel atomic.Pointer[metrics]
}

// New builds an agent for a machine. clock supplies record timestamps
// (virtual time in simulations, wall clock live); nil uses wall clock.
func New(machine core.MachineID, clock func() int64) *Agent {
	if clock == nil {
		clock = func() int64 { return time.Now().UnixNano() }
	}
	return &Agent{
		machine:  machine,
		clock:    clock,
		adapters: make(map[core.ElementID]Adapter),
	}
}

// Machine returns the agent's server identity.
func (a *Agent) Machine() core.MachineID { return a.machine }

// Register attaches an element adapter, closing the one it replaces.
func (a *Agent) Register(ad Adapter) {
	a.mu.Lock()
	old := a.adapters[ad.ElementID()]
	a.adapters[ad.ElementID()] = ad
	a.mu.Unlock()
	closeAdapter(old) // re-registering the same adapter only makes it reopen
}

// Unregister removes an element (VM migrated away) and closes its adapter.
func (a *Agent) Unregister(id core.ElementID) {
	a.mu.Lock()
	old := a.adapters[id]
	delete(a.adapters, id)
	a.mu.Unlock()
	closeAdapter(old)
}

// Close releases the log files and channel connections the adapters keep
// between fetches, and removes the QEMU log directory when Build made it
// (a caller-supplied QEMULogDir is the caller's). It is for the end of the
// agent's life: a later fetch reopens files and connections, but finds no
// QEMU logs once their directory is gone.
func (a *Agent) Close() error {
	a.mu.RLock()
	defer a.mu.RUnlock()
	for _, ad := range a.adapters {
		closeAdapter(ad)
	}
	if a.tempLogDir == "" {
		return nil
	}
	return os.RemoveAll(a.tempLogDir)
}

// closeAdapter closes what ad keeps open, if anything; the kept files and
// connections are only read, so a failed close loses nothing.
func closeAdapter(ad Adapter) {
	if c, ok := ad.(io.Closer); ok {
		c.Close()
	}
}

// Elements returns the sorted inventory.
func (a *Agent) Elements() []core.ElementID {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.elementsLocked()
}

func (a *Agent) elementsLocked() []core.ElementID {
	out := make([]core.ElementID, 0, len(a.adapters))
	for id := range a.adapters {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// LegacyFlowFetcher is implemented by adapters that can serve the legacy
// per-flow enumeration alongside their native mode — what a
// sketch-unaware controller is handed when it never negotiated the
// sketch capability.
type LegacyFlowFetcher interface {
	FetchLegacy(src *Sources) (core.Record, error)
}

// Fetch gathers records for the requested elements (all when ids empty and
// all=true). Unknown elements yield an error; partial results are
// returned alongside it. In-process callers are sketch-native: adapters
// report flow statistics in their configured mode.
func (a *Agent) Fetch(ids []core.ElementID, attrs []string, all bool) ([]core.Record, error) {
	return a.fetchAppend(nil, ids, attrs, all, false, nil)
}

// fetchAppend is Fetch appending into recs — the serve loop passes a
// per-connection scratch slice so steady-state queries reuse its backing
// array instead of growing a fresh one per frame. legacyFlows demotes
// LegacyFlowFetcher adapters to per-rule enumeration for connections
// whose peer never negotiated the sketch capability. A non-nil sb
// collects one child span per collection channel used, for connections
// whose peer negotiated spans.
//
// The adapters are resolved under one read lock and then share one
// Sources, so a file or table several elements live in is read and parsed
// once for all of them; records come back in request order.
func (a *Agent) fetchAppend(recs []core.Record, ids []core.ElementID, attrs []string, all, legacyFlows bool, sb *spanBuf) ([]core.Record, error) {
	start := time.Now()
	tel := a.tel.Load()
	src := a.takeSources()
	defer func() {
		a.sourcesMu.Lock()
		a.sources = append(a.sources, src)
		a.sourcesMu.Unlock()
		elapsed := time.Since(start)
		a.queryCount.Add(1)
		a.busyNS.Add(elapsed.Nanoseconds())
		if tel != nil {
			tel.queries.Inc()
			tel.queryDur.Observe(float64(elapsed.Nanoseconds()))
		}
	}()

	a.mu.RLock()
	if all {
		ids = a.elementsLocked()
	}
	for _, id := range ids {
		src.ads = append(src.ads, a.adapters[id])
	}
	a.mu.RUnlock()
	// Build the attribute filter once per query, not once per element.
	filter := wire.NewAttrFilter(attrs)
	var firstErr error
	for i, ad := range src.ads {
		if ad == nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("agent %s: unknown element %s", a.machine, ids[i])
			}
			continue
		}
		fetch := ad.Fetch
		if legacyFlows {
			if lf, ok := ad.(LegacyFlowFetcher); ok {
				fetch = lf.FetchLegacy
			}
		}
		var rec core.Record
		var err error
		if tel != nil || sb != nil {
			g := time.Now()
			rec, err = fetch(src)
			d := time.Since(g)
			if tel != nil {
				tel.observeGather(ad.Kind(), d)
			}
			if sb != nil {
				sb.observe(channelName(ad, legacyFlows), g.UnixNano(), d.Nanoseconds(), err != nil)
			}
		} else {
			rec, err = fetch(src)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		recs = append(recs, filter.Apply(rec))
	}
	if firstErr != nil && tel != nil {
		tel.queryErrors.Inc()
	}
	return recs, firstErr
}

// takeSources returns an idle Sources, or a new one, reset for a fetch at
// the agent's clock.
func (a *Agent) takeSources() *Sources {
	var src *Sources
	a.sourcesMu.Lock()
	if n := len(a.sources); n > 0 {
		src, a.sources = a.sources[n-1], a.sources[:n-1]
	}
	a.sourcesMu.Unlock()
	if src == nil {
		src = new(Sources)
	}
	src.reset(a.clock())
	return src
}

// Stats reports the agent's own collection overhead (Fig 16).
func (a *Agent) Stats() (queries uint64, busy time.Duration) {
	return a.queryCount.Load(), time.Duration(a.busyNS.Load())
}

// Serve answers controller connections on l until the listener closes.
// With MaxConns set, connections over the cap are refused (closed) at
// accept time so a misbehaving fleet of controllers cannot grow the
// agent's goroutine count without bound.
func (a *Agent) Serve(l net.Listener) error {
	var sem chan struct{}
	if a.MaxConns > 0 {
		sem = make(chan struct{}, a.MaxConns)
	}
	for {
		conn, err := l.Accept()
		if err != nil {
			return err
		}
		if sem != nil {
			select {
			case sem <- struct{}{}:
			default:
				if tel := a.tel.Load(); tel != nil {
					tel.connsRefused.Inc()
				}
				conn.Close()
				continue
			}
		}
		go func(conn net.Conn) {
			a.handle(conn)
			if sem != nil {
				<-sem
			}
		}(conn)
	}
}

func (a *Agent) handle(conn net.Conn) {
	defer conn.Close()
	if tel := a.tel.Load(); tel != nil {
		tel.conns.Inc()
	}
	// Per-connection session state: the payload codec (JSON until a
	// hello negotiates v2), a pooled frame buffer, and a reusable record
	// slice, so a steady-state sweep allocates near nothing per frame.
	var sess wire.Codec = wire.JSONCodec{}
	buf := wire.GetBuf()
	defer wire.PutBuf(buf)
	var recScratch []core.Record
	// Until a hello negotiates the sketch capability, the peer is assumed
	// old and gets the legacy flow enumeration. sb stays nil — no span
	// decoration — until a hello grants the spans capability.
	legacyFlows := true
	var sb *spanBuf
	for {
		if a.ReadTimeout > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(a.ReadTimeout)); err != nil {
				return
			}
		}
		payload, err := wire.ReadFrameBuf(conn, buf)
		if err != nil {
			// EOF or broken peer; connection-scoped, agent keeps serving.
			// A clean peer close is not a wire error — only malformed or
			// truncated frames count — and an idle-timeout disconnect is
			// the agent shedding a half-open controller, tracked apart.
			if tel := a.tel.Load(); tel != nil && !errors.Is(err, io.EOF) {
				if errors.Is(err, os.ErrDeadlineExceeded) {
					tel.idleClosed.Inc()
				} else {
					tel.wireRead.Inc()
				}
			}
			return
		}
		if tel := a.tel.Load(); tel != nil {
			tel.bytesRx.Add(uint64(len(payload)) + 4)
		}
		msg, err := sess.Decode(payload)
		if err != nil {
			// A frame that doesn't parse under the negotiated codec means
			// the stream is broken (or the peer switched codecs without
			// negotiating); drop the connection, the peer redials fresh.
			if tel := a.tel.Load(); tel != nil {
				tel.wireRead.Inc()
			}
			return
		}
		var resp *wire.Message
		var next wire.Codec
		if msg.Type == wire.TypeHello {
			resp, next = a.hello(msg)
			legacyFlows = resp.Hello == nil || !resp.Hello.Sketch
			if resp.Hello != nil && resp.Hello.Spans {
				sb = &spanBuf{}
			}
		} else if msg.Type == wire.TypeStreamStart {
			if errStr := a.streamStartErr(msg); errStr != "" {
				resp = &wire.Message{Type: wire.TypeError, ID: msg.ID, Error: errStr}
			} else {
				// The connection converts to push mode; serveStream owns
				// it (and buf) until the stream ends, then the connection
				// closes — streams never fall back to request/response.
				a.serveStream(conn, sess, msg, buf, legacyFlows, sb)
				return
			}
		} else {
			recScratch = recScratch[:0]
			resp = a.dispatch(msg, &recScratch, legacyFlows, sb)
		}
		if a.ReadTimeout > 0 {
			if err := conn.SetWriteDeadline(time.Now().Add(a.ReadTimeout)); err != nil {
				return
			}
		}
		out, err := sess.Encode(resp) // a hello ack rides the pre-upgrade codec
		if err == nil {
			err = wire.WriteFrame(conn, out)
		}
		if err != nil {
			if tel := a.tel.Load(); tel != nil {
				tel.wireWrite.Inc()
			}
			log.Printf("perfsight-agent %s: write response: %v", a.machine, err)
			return
		}
		if tel := a.tel.Load(); tel != nil {
			tel.bytesTx.Add(uint64(len(out)) + 4)
		}
		if next != nil {
			sess = next
		}
	}
}

// hello answers a codec negotiation: grant the best common codec, and
// return the session codec to switch to after the ack is written (nil to
// stay on the current one). Delta is granted only when both the
// controller asked and the agent allows it.
func (a *Agent) hello(msg *wire.Message) (*wire.Message, wire.Codec) {
	if tel := a.tel.Load(); tel != nil {
		tel.countRequest(msg.Type)
	}
	// The ack's agent_ts (the agent clock at answer time) seeds the
	// controller's skew estimate even on sessions that never carry spans.
	ack := &wire.Message{Type: wire.TypeHelloAck, ID: msg.ID, Machine: a.machine,
		AgentTS: a.clock(), Hello: &wire.Hello{}}
	if msg.Hello != nil {
		// Stream and sketch capabilities are codec-independent: a JSON
		// session can push or consume sketch blobs too, it just forgoes
		// delta compression.
		ack.Hello.Stream = msg.Hello.Stream && a.AllowStream
		ack.Hello.Sketch = msg.Hello.Sketch && a.AllowSketch
	}
	if a.Codec == wire.CodecJSON || msg.Hello == nil || !slices.Contains(msg.Hello.Codecs, wire.CodecV2) {
		if tel := a.tel.Load(); tel != nil {
			tel.codecJSON.Inc()
		}
		return ack, nil
	}
	delta := msg.Hello.Delta && a.AllowDelta
	// Spans ride only the v2 codec: the section is binary, and granting
	// it on a JSON session would change every response's JSON shape.
	spans := msg.Hello.Spans && a.AllowSpans
	ack.Hello.Codecs = []string{wire.CodecV2}
	ack.Hello.Delta = delta
	ack.Hello.Spans = spans
	if tel := a.tel.Load(); tel != nil {
		tel.codecV2.Inc()
	}
	c := wire.NewV2Codec(delta)
	if spans {
		c.EnableSpans()
	}
	return ack, c
}

// dispatch answers one request. The response echoes the request's
// trace_id and carries the agent-side handling time so the controller's
// query-lifecycle tracer can split transport from gather work. scratch
// is the connection's reusable record slice (already truncated). On a
// spans session (sb non-nil), query responses additionally carry a root
// "agent:dispatch" span with one child per collection channel, plus the
// agent clock at answer time for skew correction.
func (a *Agent) dispatch(msg *wire.Message, scratch *[]core.Record, legacyFlows bool, sb *spanBuf) *wire.Message {
	start := time.Now()
	// AgentTS carries the agent's own clock (not the host wall clock) so
	// the controller's skew estimate measures the clock the agent stamps
	// records with — identical in production, but it lets a lab inject
	// clock skew and watch the estimator recover it.
	ats := a.clock()
	if sb != nil && msg.Type == wire.TypeQuery {
		sb.begin()
	} else {
		sb = nil
	}
	resp := a.dispatchInner(msg, scratch, legacyFlows, sb)
	resp.TraceID = msg.TraceID
	elapsed := time.Since(start)
	resp.AgentNS = elapsed.Nanoseconds()
	if sb != nil && resp.Type == wire.TypeResponse {
		sb.root("agent:dispatch", start.UnixNano(), elapsed.Nanoseconds())
		resp.AgentTS = ats + elapsed.Nanoseconds()
		resp.AgentSpans = sb.spans
	}
	if tel := a.tel.Load(); tel != nil {
		tel.countRequest(msg.Type)
	}
	return resp
}

func (a *Agent) dispatchInner(msg *wire.Message, scratch *[]core.Record, legacyFlows bool, sb *spanBuf) *wire.Message {
	switch msg.Type {
	case wire.TypePing:
		return &wire.Message{Type: wire.TypePong, ID: msg.ID, Machine: a.machine}
	case wire.TypeListElements:
		var metas []wire.ElementMeta
		a.mu.RLock()
		for id, ad := range a.adapters {
			metas = append(metas, wire.ElementMeta{ID: id, Kind: ad.Kind()})
		}
		a.mu.RUnlock()
		sort.Slice(metas, func(i, j int) bool { return metas[i].ID < metas[j].ID })
		return &wire.Message{Type: wire.TypeElementList, ID: msg.ID, Machine: a.machine, Elements: metas}
	case wire.TypeQuery:
		if msg.Query == nil {
			return &wire.Message{Type: wire.TypeError, ID: msg.ID, Error: "query message without query body"}
		}
		recs, err := a.fetchAppend(*scratch, msg.Query.Elements, msg.Query.Attrs, msg.Query.All, legacyFlows, sb)
		*scratch = recs
		resp := &wire.Message{Type: wire.TypeResponse, ID: msg.ID, Machine: a.machine, Records: recs}
		if err != nil {
			resp.Error = err.Error()
		}
		return resp
	default:
		return &wire.Message{Type: wire.TypeError, ID: msg.ID, Error: fmt.Sprintf("unknown message type %q", msg.Type)}
	}
}
