package telemetry

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stage names one timed phase of a controller→agent query's life. The
// canonical pipeline is connect → encode → transport → agent_gather →
// decode.
type Stage string

const (
	StageConnect   Stage = "connect"
	StageEncode    Stage = "encode"
	StageTransport Stage = "transport"
	StageGather    Stage = "agent_gather"
	StageDecode    Stage = "decode"
)

// StageDur is one aggregated stage timing inside a trace summary.
type StageDur struct {
	Stage Stage         `json:"stage"`
	D     time.Duration `json:"duration_ns"`
}

// maxTraceStages bounds the distinct stages one trace aggregates; the
// canonical pipeline uses six. A fixed array (not a map) is what makes
// completing a trace allocation-free.
const maxTraceStages = 8

// Tracer assigns IDs to queries and aggregates per-stage timings into a
// registry. One tracer is shared by every client of a component; trace
// IDs are unique within it and travel to agents in the wire protocol's
// trace_id field, so both ends can attribute work to the same query.
//
// Completed traces land in a striped summary ring (shard = id mod N, so
// concurrent End()s from many agent links do not serialize on one lock)
// and, when a SpanStore is attached, their span forests are retained
// per the head-sampling + tail-keep policy (see AttachSpanStore).
//
// A nil *Tracer is fully inert: Begin returns a nil *QueryTrace whose
// methods are no-ops, so instrumented code needs no nil checks.
type Tracer struct {
	component string
	nextID    atomic.Uint64

	total     *Counter
	duration  *Histogram
	spanDrops *Counter
	stageMu   sync.RWMutex
	stages    map[Stage]*Histogram
	reg       *Registry

	pool sync.Pool // *QueryTrace recycling: Begin…End is 0 allocs/op steady state

	store       atomic.Pointer[SpanStore]
	sampleEvery atomic.Uint64
	slowNS      atomic.Int64

	shards []traceShard
}

// traceShard is one stripe of the retained-summary ring. Padded so
// neighboring shards' mutexes do not share a cache line.
type traceShard struct {
	mu   sync.Mutex
	ring []TraceSummary
	next int
	_    [64]byte
}

// TraceSummary is a completed trace retained in the tracer's ring for
// inspection (perfsight top's "recent queries" view, /traces, tests).
// Value-shaped: stage timings live in a fixed array, and failure is a
// structured status (error string + the stage it failed in) rather than
// a bare bool.
type TraceSummary struct {
	ID        uint64                   `json:"id"`
	Target    string                   `json:"target"`
	Start     time.Time                `json:"start"`
	Total     time.Duration            `json:"total_ns"`
	Err       string                   `json:"err,omitempty"`
	FailStage Stage                    `json:"fail_stage,omitempty"`
	NStages   int                      `json:"-"`
	Stages    [maxTraceStages]StageDur `json:"-"`
	Spans     int                      `json:"spans"`
	Dropped   int                      `json:"dropped_spans,omitempty"`
}

// StageDuration returns the aggregated duration of stage st (0 if the
// trace never recorded it).
func (s *TraceSummary) StageDuration(st Stage) time.Duration {
	for i := 0; i < s.NStages; i++ {
		if s.Stages[i].Stage == st {
			return s.Stages[i].D
		}
	}
	return 0
}

// StageList returns the recorded stages in first-recorded order. The
// slice aliases the summary; copy before retaining.
func (s *TraceSummary) StageList() []StageDur { return s.Stages[:s.NStages] }

// Failed reports whether the trace ended in error.
func (s *TraceSummary) Failed() bool { return s.Err != "" }

// NewTracer returns a tracer whose metrics live under
// perfsight_<component>_query_*. keep bounds the retained-trace ring
// (<=0 means 64); it is striped over up to 8 shards.
func NewTracer(reg *Registry, component string, keep int) *Tracer {
	if keep <= 0 {
		keep = 64
	}
	nShards := 8
	if keep < nShards {
		nShards = keep
	}
	per := (keep + nShards - 1) / nShards
	t := &Tracer{
		component: component,
		reg:       reg,
		stages:    make(map[Stage]*Histogram),
		shards:    make([]traceShard, nShards),
	}
	for i := range t.shards {
		t.shards[i].ring = make([]TraceSummary, per)
	}
	t.pool.New = func() any { return new(QueryTrace) }
	prefix := "perfsight_" + component + "_query"
	t.total = reg.Counter("perfsight_"+component+"_queries_total", "queries traced end to end")
	t.duration = reg.Histogram(prefix+"_duration_ns", "end-to-end query latency, nanoseconds")
	t.spanDrops = reg.Counter("perfsight_"+component+"_trace_spans_dropped_total",
		"spans dropped because a trace exceeded its fixed span capacity")
	return t
}

// AttachSpanStore wires span retention: completed traces that carry
// spans are handed to st. sampleEvery is the head-sampling rate (keep
// every Nth trace; <=1 keeps all); independent of sampling, error
// traces and traces slower than slow (0 disables) are tail-kept, and
// everything else enters st's short transient window so an incident can
// still pin it.
func (t *Tracer) AttachSpanStore(st *SpanStore, sampleEvery int, slow time.Duration) {
	if t == nil {
		return
	}
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	t.sampleEvery.Store(uint64(sampleEvery))
	t.slowNS.Store(slow.Nanoseconds())
	t.store.Store(st)
}

// SpanStore returns the attached store (nil if none).
func (t *Tracer) SpanStore() *SpanStore {
	if t == nil {
		return nil
	}
	return t.store.Load()
}

// NextID assigns a bare trace ID without starting a trace — used by
// callers that only need wire-level correlation.
func (t *Tracer) NextID() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

func (t *Tracer) stageHist(s Stage) *Histogram {
	t.stageMu.RLock()
	h := t.stages[s]
	t.stageMu.RUnlock()
	if h != nil {
		return h
	}
	t.stageMu.Lock()
	defer t.stageMu.Unlock()
	if h = t.stages[s]; h == nil {
		h = t.reg.Histogram("perfsight_"+t.component+"_query_stage_duration_ns",
			"per-stage query latency, nanoseconds", Label{Key: "stage", Value: string(s)})
		t.stages[s] = h
	}
	return h
}

// Begin starts a trace against target (an agent address or machine ID).
// The returned trace is pooled: it must not be used after End.
func (t *Tracer) Begin(target string) *QueryTrace {
	if t == nil {
		return nil
	}
	q := t.pool.Get().(*QueryTrace)
	q.t = t
	q.id = t.nextID.Add(1)
	q.target = target
	q.start = time.Now()
	n := t.sampleEvery.Load()
	q.sampled = n <= 1 || q.id%n == 0
	q.err = ""
	q.failStage = ""
	q.nStages = 0
	q.nSpans = 0
	q.dropped = 0
	q.nextSpan = 0
	return q
}

// QueryTrace accumulates one query's stage timings and spans in fixed
// storage. Methods on a nil receiver — and on a trace that already
// Ended — are no-ops.
type QueryTrace struct {
	t       *Tracer // nil once Ended (guards pooled reuse)
	id      uint64
	target  string
	start   time.Time
	sampled bool

	mu        sync.Mutex
	err       string
	failStage Stage
	nStages   int
	stageDur  [maxTraceStages]StageDur
	nSpans    int
	dropped   int
	nextSpan  uint64
	spans     [MaxSpansPerTrace]Span
}

// ID returns the wire-visible trace ID (0 for a nil trace).
func (q *QueryTrace) ID() uint64 {
	if q == nil {
		return 0
	}
	return q.id
}

// addSpanLocked appends one span; caller holds q.mu.
func (q *QueryTrace) addSpanLocked(component, name string, startNS, durNS int64, parent uint64, status string) uint64 {
	if q.nSpans >= MaxSpansPerTrace {
		q.dropped++
		return 0
	}
	q.nextSpan++
	q.spans[q.nSpans] = Span{
		TraceID: q.id, ID: q.nextSpan, Parent: parent,
		Component: component, Name: name,
		Start: startNS, Duration: durNS, Status: status,
	}
	q.nSpans++
	return q.nextSpan
}

// Record adds d to the named stage and observes it in the stage
// histogram; the stage also becomes a top-level span ending now.
func (q *QueryTrace) Record(s Stage, d time.Duration) { q.RecordSpan(s, d) }

// RecordSpan is Record returning the new span's ID, so remote child
// spans can be parented under it (0 for a nil/ended trace or when the
// span capacity is exhausted).
func (q *QueryTrace) RecordSpan(s Stage, d time.Duration) uint64 {
	if q == nil || q.t == nil || d < 0 {
		return 0
	}
	end := time.Now()
	q.mu.Lock()
	i := 0
	for ; i < q.nStages; i++ {
		if q.stageDur[i].Stage == s {
			q.stageDur[i].D += d
			break
		}
	}
	if i == q.nStages && i < maxTraceStages {
		q.stageDur[i] = StageDur{Stage: s, D: d}
		q.nStages++
	}
	id := q.addSpanLocked(q.t.component, string(s), end.UnixNano()-d.Nanoseconds(), d.Nanoseconds(), 0, "")
	t := q.t
	q.mu.Unlock()
	t.stageHist(s).Observe(float64(d.Nanoseconds()))
	return id
}

// AddSpan appends a span with explicit timing — the ingest point for
// remote (agent-side) spans after skew correction. start/dur are unix
// nanoseconds on the controller timeline; parent is a span ID already
// in this trace (0 for top level). Returns the assigned span ID.
func (q *QueryTrace) AddSpan(component, name string, startNS, durNS int64, parent uint64, status string) uint64 {
	if q == nil || q.t == nil {
		return 0
	}
	q.mu.Lock()
	id := q.addSpanLocked(component, name, startNS, durNS, parent, status)
	q.mu.Unlock()
	return id
}

// Time starts timing stage s and returns a stop function that records
// the elapsed duration:
//
//	defer qt.Time(StageEncode)()
//
// The closure allocates; hot paths that must stay 0 allocs/op time the
// stage manually and call Record.
func (q *QueryTrace) Time(s Stage) func() {
	if q == nil {
		return func() {}
	}
	start := time.Now()
	return func() { q.Record(s, time.Since(start)) }
}

// Fail marks the trace as errored with the stage it failed in; the
// summary keeps err's text as the structured status.
func (q *QueryTrace) Fail(s Stage, err error) {
	if q == nil || q.t == nil {
		return
	}
	q.mu.Lock()
	q.failStage = s
	if err != nil {
		q.err = err.Error()
	} else {
		q.err = "error"
	}
	q.mu.Unlock()
}

// End completes the trace: total latency is observed, the summary
// enters the retained ring's shard, spans are handed to the attached
// store, and the trace returns to the pool (it must not be used again).
func (q *QueryTrace) End() {
	if q == nil || q.t == nil {
		return
	}
	t := q.t
	total := time.Since(q.start)
	t.total.Inc()
	t.duration.Observe(float64(total.Nanoseconds()))

	q.mu.Lock()
	sum := TraceSummary{
		ID: q.id, Target: q.target, Start: q.start, Total: total,
		Err: q.err, FailStage: q.failStage,
		NStages: q.nStages, Stages: q.stageDur,
		Spans: q.nSpans, Dropped: q.dropped,
	}
	if q.dropped > 0 {
		t.spanDrops.Add(uint64(q.dropped))
	}
	if st := t.store.Load(); st != nil && q.nSpans > 0 {
		keep := ""
		switch {
		case q.err != "":
			keep = KeepError
		case t.slowNS.Load() > 0 && total.Nanoseconds() >= t.slowNS.Load():
			keep = KeepSlow
		case q.sampled:
			keep = KeepSample
		}
		st.put(sum, t.component, q.spans[:q.nSpans], keep)
	}
	q.t = nil
	q.mu.Unlock()

	sh := &t.shards[sum.ID%uint64(len(t.shards))]
	sh.mu.Lock()
	sh.ring[sh.next] = sum
	sh.next = (sh.next + 1) % len(sh.ring)
	sh.mu.Unlock()

	t.pool.Put(q)
}

// Recent returns retained trace summaries, oldest first (trace IDs are
// monotonic, so ID order is completion-start order).
func (t *Tracer) Recent() []TraceSummary {
	if t == nil {
		return nil
	}
	var out []TraceSummary
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		for j := range sh.ring {
			if sh.ring[j].ID != 0 {
				out = append(out, sh.ring[j])
			}
		}
		sh.mu.Unlock()
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].ID > out[j].ID; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}
