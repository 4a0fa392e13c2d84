package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"perfsight/internal/agent"
	"perfsight/internal/anomaly"
	"perfsight/internal/core"
	"perfsight/internal/history"
	"perfsight/internal/ingest"
	"perfsight/internal/telemetry"
)

// pushIngestSize sizes the push-ingest workload.
type pushIngestSize struct {
	Agents     int           `json:"agents"`
	Elements   int           `json:"elements_per_agent"` // six attrs each
	TenantSize int           `json:"elements_per_tenant"`
	MoveOneIn  int           `json:"move_one_in"` // one element in this many has moving counters
	Cadence    time.Duration `json:"cadence_ns"`
	FaultEvery time.Duration `json:"fault_every_ns"`
	Warmup     int           `json:"warmup_frames"` // per agent, before timing starts
	Setups     int           `json:"setups"`
}

var pushIngestFull = pushIngestSize{Agents: 2, Elements: 1000, TenantSize: 10, MoveOneIn: 4,
	Cadence: 20 * time.Millisecond, FaultEvery: 150 * time.Millisecond, Warmup: 25, Setups: 5}

// spikePackets is what one fault adds to a drop counter in one frame:
// 50,000 drops/s at the 20 ms cadence, against the default 50/s SLO.
const spikePackets = 1000

// pushElement is a benchmark-owned element served through the agent's
// DirectAdapter. Its kind is a guest-side one on purpose: Algorithm 1
// ranks host-stack elements only, so a spike here is diagnosed to the
// element itself and every fault gets an incident of its own.
type pushElement struct {
	id    core.ElementID
	moves bool          // traffic counters advance every frame
	frame *atomic.Int64 // the owning agent's gather count
	attrs [6]core.Attr  // kind, rx/tx packets and bytes, drops; reused by every snapshot

	lastFrame int64
	fault     atomic.Pointer[fault] // set by the injector, taken by the next snapshot
}

func (e *pushElement) ID() core.ElementID     { return e.id }
func (e *pushElement) Kind() core.ElementKind { return core.KindGuestSocket }

// Snapshot advances the element to the agent's current frame: a moving
// element's traffic counters advance, and a pending fault lands on the
// drop counter, stamped with the time this gather read it. Which elements
// move is fixed by the seed: a steady rate is what the pipeline's EWMA
// baselines take for healthy, so only the injected spikes trigger.
func (e *pushElement) Snapshot(ts int64) core.Record {
	if f := e.frame.Load(); f != e.lastFrame {
		e.lastFrame = f
		if e.moves {
			e.attrs[1].Value += 10
			e.attrs[2].Value += 14480
			e.attrs[3].Value += 10
			e.attrs[4].Value += 14480
		}
		if ft := e.fault.Swap(nil); ft != nil {
			e.attrs[5].Value += spikePackets
			ft.readAt.Store(time.Now().UnixNano())
		}
	}
	return core.Record{Timestamp: ts, Element: e.id, Attrs: e.attrs[:]}
}

// fault is one injected drop-counter spike and what became of it.
type fault struct {
	tenant   core.TenantID
	element  core.ElementID
	injectAt time.Time
	readAt   atomic.Int64 // unix ns; written by the agent's gather
	eventAt  time.Time    // when the sink saw the journal event; guarded by pushWorld.mu
}

// pushAgent is one synthetic agent and the benchmark's view of its stream.
type pushAgent struct {
	mid      core.MachineID
	a        *agent.Agent
	srv      *served
	frame    atomic.Int64
	elements []*pushElement
	tenants  []core.TenantID // tenants[i] owns elements [i*TenantSize, (i+1)*TenantSize)

	mu        sync.Mutex // the stream's drain goroutine writes, the driver reads
	lagMS     samples
	shortFrms int // batches that did not carry every element
}

// pushWorld is the push-ingest system under test: synthetic agents
// streaming over loopback TCP into ingest.Manager, whose sink appends to
// the flight recorder and evaluates the anomaly pipeline on arrival.
type pushWorld struct {
	sz      pushIngestSize
	agents  map[core.MachineID]*pushAgent
	order   []*pushAgent
	reg     *telemetry.Registry
	store   *history.Store
	journal *history.Journal
	pipe    *anomaly.Pipeline
	mgr     *ingest.Manager
	stop    context.CancelFunc
	done    chan struct{} // closed when Manager.Run has returned

	records  atomic.Int64 // delivered to the sink
	frames   atomic.Int64
	maxDepth atomic.Int64

	mu      sync.Mutex
	seenSeq int64
	pending map[core.ElementID]*fault // injected, event not yet seen
}

// newPushAgents generates the synthetic agents from the seed: which
// elements move is seeded — how many is not, so every seed's delta frames
// carry the same number of changed records — and names and tenants are
// fixed.
func newPushAgents(seed uint64, sz pushIngestSize) []*pushAgent {
	rng := rand.New(rand.NewSource(int64(seed)))
	var agents []*pushAgent
	for i := 0; i < sz.Agents; i++ {
		moving := make([]bool, sz.Elements)
		for _, j := range rng.Perm(sz.Elements)[:sz.Elements/sz.MoveOneIn] {
			moving[j] = true
		}
		pa := &pushAgent{mid: core.MachineID(fmt.Sprintf("pm%d", i))}
		pa.a = agent.New(pa.mid, func() int64 {
			pa.frame.Add(1)
			return time.Now().UnixNano()
		})
		for j := 0; j < sz.Elements; j++ {
			e := &pushElement{id: core.ElementID(fmt.Sprintf("%s/e%05d", pa.mid, j)),
				moves: moving[j], frame: &pa.frame}
			for k, id := range []core.AttrID{core.AttrKind, core.AttrRxPackets, core.AttrRxBytes,
				core.AttrTxPackets, core.AttrTxBytes, core.AttrDropPackets} {
				e.attrs[k].ID = id
			}
			e.attrs[0].Value = float64(core.KindGuestSocket)
			pa.elements = append(pa.elements, e)
			pa.a.Register(&agent.DirectAdapter{E: e})
		}
		for k := 0; k < sz.Elements/sz.TenantSize; k++ {
			pa.tenants = append(pa.tenants, core.TenantID(fmt.Sprintf("t-%s-%03d", pa.mid, k)))
		}
		pa.a.AllowDelta, pa.a.AllowStream, pa.a.AllowSpans = true, true, true
		pa.a.CadenceMin, pa.a.CadenceMax = sz.Cadence, sz.Cadence
		agents = append(agents, pa)
	}
	return agents
}

// pushPipeline builds the flight recorder and anomaly pipeline the sink
// feeds: stock thresholds, baselines on. An incident resolves a second
// after its fault, so few are open at once, and the resolved ring holds
// every fault of the longest run.
func pushPipeline() (*history.Store, *history.Journal, *anomaly.Pipeline) {
	store := history.New(history.Config{})
	journal := history.NewJournal(1024)
	pipe := anomaly.NewPipeline(store, journal, anomaly.Config{
		Correlator: anomaly.CorrelatorConfig{ResolveAfter: time.Second, MaxResolved: 4096},
	})
	return store, journal, pipe
}

func buildPushWorld(seed uint64, sz pushIngestSize) (*pushWorld, error) {
	w := &pushWorld{sz: sz, agents: map[core.MachineID]*pushAgent{}, reg: telemetry.NewRegistry(),
		pending: map[core.ElementID]*fault{}, done: make(chan struct{})}
	for _, pa := range newPushAgents(seed, sz) {
		srv, err := serve(pa.a)
		if err != nil {
			w.close()
			return nil, err
		}
		pa.srv = srv
		w.agents[pa.mid] = pa
		w.order = append(w.order, pa)
	}

	w.store, w.journal, w.pipe = pushPipeline()
	tracer := telemetry.NewTracer(w.reg, "controller", 64)
	spans := telemetry.NewSpanStore(w.reg, 256, 64, 64)
	tracer.AttachSpanStore(spans, 1, 0)
	w.pipe.Spans = spans
	w.mgr = ingest.NewManager(ingest.Config{
		CadenceMin: sz.Cadence, CadenceMax: sz.Cadence,
		Delta: true, Sketch: true, Spans: true, Tracer: tracer,
		Sink: w.sink,
	}).EnableTelemetry(w.reg)
	for _, pa := range w.order {
		w.mgr.Add(pa.mid, pa.srv.addr())
	}
	ctx, cancel := context.WithCancel(context.Background())
	w.stop = cancel
	go func() {
		defer close(w.done)
		_ = w.mgr.Run(ctx) // returns ctx's error once stopped
	}()

	// Warm-up: both streams established and delivering.
	want := int64(sz.Warmup * sz.Agents)
	for deadline := time.Now().Add(10 * time.Second); w.frames.Load() < want; {
		if time.Now().After(deadline) {
			w.close()
			return nil, fmt.Errorf("push streams delivered %d of %d warm-up frames in 10 s", w.frames.Load(), want)
		}
		time.Sleep(sz.Cadence)
	}
	return w, nil
}

func (w *pushWorld) close() {
	if w.stop != nil {
		w.stop()
		<-w.done
	}
	for _, pa := range w.order {
		if pa.srv != nil {
			pa.srv.close()
		}
	}
}

// sink is the ingest manager's sink, called from one drain goroutine per
// agent: append every record under its tenant, then evaluate each
// tenant's records on arrival, as a multi-tenant controller would.
func (w *pushWorld) sink(mid core.MachineID, recs []core.Record, traceID uint64) {
	pa := w.agents[mid]
	pa.mu.Lock()
	if len(recs) != len(pa.elements) {
		pa.shortFrms++ // records arrive in element order; a short batch cannot be sliced by tenant
		pa.mu.Unlock()
		return
	}
	pa.lagMS = append(pa.lagMS, ms(time.Duration(time.Now().UnixNano()-recs[0].Timestamp)))
	pa.mu.Unlock()
	n := w.sz.TenantSize
	for k, tid := range pa.tenants {
		group := recs[k*n : (k+1)*n]
		for _, r := range group {
			w.store.Append(tid, r)
		}
		w.pipe.ObserveTraced(tid, group, traceID)
		w.noteEvents()
	}
	w.records.Add(int64(len(recs)))
	if w.frames.Add(1)%16 == 0 { // Health allocates; sampling keeps that out of allocs_per_op
		for _, h := range w.mgr.Health() {
			if d := int64(h.QueueLen); d > w.maxDepth.Load() {
				w.maxDepth.Store(d)
			}
		}
	}
}

// noteEvents stamps the faults whose journal event has just appeared.
func (w *pushWorld) noteEvents() {
	_, seq, _ := w.journal.Stats()
	w.mu.Lock()
	defer w.mu.Unlock()
	if seq == w.seenSeq {
		return
	}
	now := time.Now()
	for _, ev := range w.journal.Since(w.seenSeq, 0) {
		if ft := w.pending[ev.Element]; ft != nil && ft.eventAt.IsZero() {
			ft.eventAt = now
		}
	}
	w.seenSeq = seq
}

// pushRun is what one open-loop window measured.
type pushRun struct {
	sl       slices // cut at every fault tick; one op per record delivered
	records  int64
	frames   int64
	rxBytes  int64
	faults   []*fault
	lateMS   samples // how late each fault was injected against its schedule
	lagMS    samples
	short    int
	dropped  uint64
	gaps     uint64
	sentSeqs uint64 // frames the agents sent in the window, by their own sequence numbers
}

func (w *pushWorld) txBytes() int64 {
	var n int64
	for _, pa := range w.order {
		n += pa.srv.txBytes.Load()
	}
	return n
}

func (w *pushWorld) lastSeqs() uint64 {
	var n uint64
	for _, h := range w.mgr.Health() {
		n += h.LastSeq
	}
	return n
}

// runFor measures d of the open loop. The agents push on their own timers
// whatever the controller does; this goroutine only injects a fault on a
// fresh tenant at every tick of the fault schedule, stopping early enough
// that the last one's frame arrives inside the window.
//
// A fault is detected when the sink reaches its tenant's slice of the
// batch, so where the tenant sits in the batch is part of the latency.
// The schedule therefore walks the positions in a fixed stride from a
// seeded start, alternating agents: any long run of faults covers the
// batch evenly, and the median does not depend on the draw.
func (w *pushWorld) runFor(d time.Duration, seed uint64) pushRun {
	var r pushRun
	for _, pa := range w.order {
		pa.mu.Lock()
		pa.lagMS = nil
		pa.mu.Unlock()
	}
	records0, frames0, bytes0, seqs0 := w.records.Load(), w.frames.Load(), w.txBytes(), w.lastSeqs()
	lap := records0
	r.sl.start()
	start := time.Now()
	lastInject := d - 3*w.sz.Cadence
	perAgent := w.sz.Elements / w.sz.TenantSize
	stride := coprimeNear(perAgent*37/100, perAgent)
	for i := 0; i < perAgent*len(w.order); i++ { // until no tenant is fresh
		due := time.Duration(i+1) * w.sz.FaultEvery
		if due > lastInject {
			break
		}
		time.Sleep(time.Until(start.Add(due)))
		now := w.records.Load()
		r.sl.stop(float64(now - lap))
		lap = now
		r.sl.start()
		pa := w.order[i%len(w.order)]
		k := (int(seed%uint64(perAgent)) + i/len(w.order)*stride) % perAgent
		e := pa.elements[k*w.sz.TenantSize]
		ft := &fault{tenant: pa.tenants[k], element: e.id, injectAt: time.Now()}
		r.lateMS = append(r.lateMS, ms(ft.injectAt.Sub(start.Add(due))))
		w.mu.Lock()
		w.pending[e.id] = ft
		w.mu.Unlock()
		e.fault.Store(ft)
		r.faults = append(r.faults, ft)
	}
	time.Sleep(time.Until(start.Add(d)))
	r.sl.stop(float64(w.records.Load() - lap))
	r.records, r.frames = w.records.Load()-records0, w.frames.Load()-frames0
	r.rxBytes, r.sentSeqs = w.txBytes()-bytes0, w.lastSeqs()-seqs0
	return r
}

// coprimeNear returns the smallest k >= max(want, 1) coprime with n, so
// that stepping by k visits every residue of n before repeating.
func coprimeNear(want, n int) int {
	gcd := func(a, b int) int {
		for b != 0 {
			a, b = b, a%b
		}
		return a
	}
	k := max(want, 1)
	for gcd(k, n) != 1 {
		k++
	}
	return k
}

// settle stops the streams and collects what only a stopped world can be
// read for without racing its goroutines.
func (w *pushWorld) settle(r *pushRun) {
	w.close()
	for _, pa := range w.order {
		pa.mu.Lock()
		r.lagMS = append(r.lagMS, pa.lagMS...)
		r.short += pa.shortFrms
		pa.mu.Unlock()
	}
	for _, h := range w.mgr.Health() {
		r.dropped += h.Dropped
		r.gaps += h.Gaps
	}
}

// check holds the run to its expectations and returns the detection
// latencies: every fault opened exactly one incident, rooted at the
// spiked element and owned by its tenant; nothing else opened one; no
// batch was dropped, lost or short; and the agents kept their cadence.
func (w *pushWorld) check(out *outcome, r *pushRun, d time.Duration) (detectMS, fromInjectMS samples) {
	byRoot := map[string][]anomaly.Incident{}
	incidents := w.pipe.Incidents.List("", 0)
	for _, in := range incidents {
		byRoot[in.RootCause] = append(byRoot[in.RootCause], in)
	}
	missed := 0
	for _, ft := range r.faults {
		got := byRoot[string(ft.element)]
		ok := len(got) == 1 && len(got[0].Tenants) == 1 && got[0].Tenants[0] == ft.tenant &&
			!ft.eventAt.IsZero() && ft.readAt.Load() != 0
		if !ok {
			missed++
			continue
		}
		detectMS = append(detectMS, ms(ft.eventAt.Sub(time.Unix(0, ft.readAt.Load()))))
		fromInjectMS = append(fromInjectMS, ms(ft.eventAt.Sub(ft.injectAt)))
	}
	out.attempted += int64(len(r.faults)) + r.frames
	out.failed += int64(missed) + int64(r.dropped) + int64(r.gaps) + int64(r.short)
	if missed > 0 {
		out.fail("%d of %d faults did not open exactly one incident on their own tenant", missed, len(r.faults))
	}
	if len(incidents) != len(r.faults) {
		out.fail("%d incidents for %d faults", len(incidents), len(r.faults))
	}
	if r.dropped+r.gaps > 0 || r.short > 0 {
		out.fail("%d batches dropped, %d sequence gaps, %d short batches", r.dropped, r.gaps, r.short)
	}
	due := d.Seconds() / w.sz.Cadence.Seconds() * float64(w.sz.Agents)
	out.lateness["frames_due"] = due
	out.lateness["frames_sent"] = float64(r.sentSeqs)
	out.lateness["fault_inject_late_ms_p50"] = r.lateMS.sorted().quantile(0.5)
	out.lateness["fault_inject_late_ms_max"] = r.lateMS.sorted().quantile(1)
	// The agent re-arms its timer after each gather, so its period is the
	// cadence plus a gather and a timer's slack: 22 ms for 20 at the seed.
	// A frame per agent is the window's edges.
	if float64(r.sentSeqs) < 0.85*due-float64(w.sz.Agents) {
		out.fail("agents sent %d frames where the cadence makes %.0f due", r.sentSeqs, due)
	}
	return detectMS, fromInjectMS
}

func runPushIngest(o options, sz pushIngestSize) (*outcome, error) {
	out := newOutcome(sz)
	w, setups, err := setUp(sz.Setups, func() (*pushWorld, error) { return buildPushWorld(o.seed, sz) }, (*pushWorld).close)
	if err != nil {
		return nil, err
	}
	defer w.close()

	if o.trace {
		return out, tracePushIngest(o, sz, w, out)
	}
	d := o.window(1)
	r := w.runFor(d, o.seed)
	w.settle(&r)
	detectMS, _ := w.check(out, &r, d)

	out.samples["op_ms_p50"] = describe(detectMS, "ms")
	out.set("setup_s", setups.sorted().quantile(0.5))
	out.set("op_ms_p50", detectMS.sorted().quantile(0.5))
	r.sl.report(out)
	out.set("heap_retained_mb", heapLiveMB())
	runtime.KeepAlive(w)
	return out, nil
}
