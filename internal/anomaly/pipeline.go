package anomaly

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"perfsight/internal/core"
	"perfsight/internal/history"
	"perfsight/internal/telemetry"
)

// seriesClass says which detector a series gets, decided once from the
// AttrID schema when the series is first seen.
type seriesClass uint8

const (
	classSkip     seriesClass = iota // config attrs: nothing to detect
	classDropRate                    // drop/error counters: rate vs SLO threshold
	classCounter                     // other counters: rate fed into an EWMA baseline
	classGauge                       // gauges: value fed into an EWMA baseline
)

// schemaClasses maps every schema attribute to its detector class at
// package init, so the hot path classifies with one array index.
var schemaClasses = func() [core.SchemaMax + 1]seriesClass {
	var t [core.SchemaMax + 1]seriesClass
	for id := core.AttrID(1); id <= core.SchemaMax; id++ {
		t[id] = classify(id)
	}
	return t
}()

// classify decides a detector class from the attribute's declared
// schema: drop/error counters get the SLO rate detector (the original
// Watcher signal), remaining counters get a rate baseline, gauges get a
// value baseline, and static config is skipped.
func classify(id core.AttrID) seriesClass {
	switch core.AttrSemanticsOf(id) {
	case core.SemConfig:
		return classSkip
	case core.SemCounter:
		name := core.AttrName(id)
		if strings.Contains(name, "drop") || strings.Contains(name, "err") {
			return classDropRate
		}
		return classCounter
	default:
		return classGauge
	}
}

// seriesKey identifies one monitored (tenant, element, attr) series.
type seriesKey struct {
	Tenant  core.TenantID
	Element core.ElementID
	Attr    core.AttrID
}

// seriesState is one series' detector state. Counters always difference
// through the rate detector; baselines judge the resulting rate (or the
// raw gauge value).
type seriesState struct {
	class    seriesClass
	rate     RateDetector
	ewma     EWMADetector
	lastGood int64 // ts of the last sample judged healthy (or unjudged)
}

// Config shapes the pipeline.
type Config struct {
	// SLO is the per-tenant threshold table.
	SLO SLOConfig
	// MaxGap re-seeds a series' detectors instead of judging across a
	// sweep blackout longer than this. Default 30s.
	MaxGap time.Duration
	// Correlator bounds incident grouping.
	Correlator CorrelatorConfig
}

func (c Config) withDefaults() Config {
	if c.MaxGap <= 0 {
		c.MaxGap = 30 * time.Second
	}
	return c
}

// Pipeline is the always-on anomaly detector: wired as the Monitor's
// AfterSweep hook, it evaluates every swept series against its baseline
// and the tenant's SLO, automatically diagnoses the surrounding window
// from the history store on a trigger (zero agent queries), journals the
// evidence, and correlates events into incidents.
type Pipeline struct {
	Store     *history.Store
	Journal   *history.Journal
	Incidents *Correlator
	// Net resolves a tenant's virtual network so triggered diagnoses
	// include Algorithm 2 pruning; nil skips chain diagnosis.
	Net func(core.TenantID) *core.VirtualNet

	// TraceOf resolves the distributed trace id of the most recent sweep
	// query that touched an element (Controller.LastTraceID); nil leaves
	// pull-path events untraced. Push-path events carry their frame's
	// trace id through ObserveTraced instead.
	TraceOf func(core.ElementID) uint64

	// Spans, when set, pins every incident-referenced trace in the span
	// store so its waterfall outlives head sampling for the
	// investigation.
	Spans *telemetry.SpanStore

	cfg Config

	mu        sync.Mutex
	series    map[seriesKey]*seriesState
	lastFired map[core.TenantID]int64
	slo       map[core.TenantID]SLO // resolved per-tenant cache

	tel atomic.Pointer[pipelineMetrics]
}

// NewPipeline builds a pipeline evaluating store sweeps into journal.
func NewPipeline(store *history.Store, journal *history.Journal, cfg Config) *Pipeline {
	cfg = cfg.withDefaults()
	return &Pipeline{
		Store:     store,
		Journal:   journal,
		Incidents: NewCorrelator(cfg.Correlator),
		cfg:       cfg,
		series:    make(map[seriesKey]*seriesState),
		lastFired: make(map[core.TenantID]int64),
		slo:       make(map[core.TenantID]SLO),
	}
}

// Config returns the pipeline's effective configuration.
func (p *Pipeline) Config() Config { return p.cfg }

// sloFor resolves (and caches) the tenant's effective SLO. Callers hold
// p.mu.
func (p *Pipeline) sloFor(tid core.TenantID) SLO {
	s, ok := p.slo[tid]
	if !ok {
		s = p.cfg.SLO.For(tid)
		p.slo[tid] = s
	}
	return s
}

// violation is the worst SLO breach found in one sweep.
type violation struct {
	elem     core.ElementID
	attr     core.AttrID
	detector string
	value    float64 // the offending rate or gauge value
	baseline float64 // EWMA baseline (0 for the drop-rate detector)
	severity float64 // multiples of the threshold/band; >= 1 fires
	ts       int64
	lastGood int64
	dropRate float64 // set when the drop-rate detector fired
}

// Detector names carried on journal events.
const (
	DetectorDropRate = "drop-rate"
	DetectorBaseline = "ewma-baseline"
)

// evalCtx is one evaluation pass's resolved context (SLO, EWMA config)
// plus its accumulators: the worst violation seen and telemetry tallies.
// Built under p.mu and consumed by evalRecord calls holding p.mu.
type evalCtx struct {
	slo    SLO
	ecfg   EWMAConfig
	maxGap int64

	worst         violation
	evals, resets uint64
	now           int64  // newest record timestamp seen this pass
	traceID       uint64 // push path: the frame's trace; 0 = resolve via TraceOf
}

// beginEval resolves the tenant's evaluation context. Callers hold
// p.mu. Returned by value so the hot path keeps it on the stack (the
// eval alloc budget is zero).
func (p *Pipeline) beginEval(tid core.TenantID) evalCtx {
	slo := p.sloFor(tid)
	return evalCtx{
		slo:    slo,
		maxGap: int64(p.cfg.MaxGap),
		ecfg: EWMAConfig{
			Alpha:       0.25,
			MinSamples:  slo.MinSamples,
			Bands:       slo.Bands,
			RelFloor:    0.15,
			Persistence: slo.Persistence,
		},
	}
}

// worse reports whether a violation of severity sev on element id beats
// the worst one so far. Equal severities go to the smaller element ID,
// so the pick does not depend on the order records arrive in (a sweep
// ranges over a map).
func (ec *evalCtx) worse(sev float64, id core.ElementID) bool {
	return sev > ec.worst.severity || sev == ec.worst.severity && id < ec.worst.elem
}

// evalRecord runs one record through every attached detector, folding
// any violation into ec.worst. Callers hold p.mu. All timing is record
// clock: violations carry the record's own timestamp, never wall time,
// so detection latency is invariant to how late the record arrived.
func (p *Pipeline) evalRecord(tid core.TenantID, id core.ElementID, rec core.Record, ec *evalCtx) {
	if rec.Timestamp > ec.now {
		ec.now = rec.Timestamp
	}
	for _, a := range rec.Attrs {
		st, cls := p.stateFor(tid, id, a.ID)
		if cls == classSkip {
			continue
		}
		ec.evals++
		prevTS := st.rate.LastTS()
		switch cls {
		case classDropRate:
			rate, rst := st.rate.Eval(rec.Timestamp, a.Value, ec.maxGap)
			if rst != RateOK {
				if rst == RateReset {
					ec.resets++
				}
				st.lastGood = rec.Timestamp
				continue
			}
			if rate >= ec.slo.DropRatePPS && ec.slo.DropRatePPS > 0 {
				sev := rate / ec.slo.DropRatePPS
				if ec.worse(sev, id) {
					ec.worst = violation{
						elem: id, attr: a.ID, detector: DetectorDropRate,
						value: rate, severity: sev, ts: rec.Timestamp,
						lastGood: prevTS, dropRate: rate,
					}
				}
			} else {
				st.lastGood = rec.Timestamp
			}
		case classCounter, classGauge:
			x := a.Value
			if cls == classCounter {
				r, rst := st.rate.Eval(rec.Timestamp, a.Value, ec.maxGap)
				if rst != RateOK {
					if rst == RateReset {
						ec.resets++
					}
					if rst == RateGap || rst == RateReset {
						st.ewma.Reset() // re-learn the baseline
					}
					st.lastGood = rec.Timestamp
					continue
				}
				x = r
			}
			if ec.slo.DisableBaselines {
				st.lastGood = rec.Timestamp
				continue
			}
			v := st.ewma.Eval(x, ec.ecfg)
			if !v.Out {
				st.lastGood = rec.Timestamp
				continue
			}
			if v.Trigger && ec.worse(v.Deviation, id) {
				ec.worst = violation{
					elem: id, attr: a.ID, detector: DetectorBaseline,
					value: x, baseline: v.Baseline, severity: v.Deviation,
					ts: rec.Timestamp, lastGood: st.lastGood,
				}
			}
		}
	}
}

// finishEval applies the cooldown gate, fires the diagnosis if the pass
// found a triggering violation, and ticks incident resolution. Called
// WITHOUT p.mu (it takes and releases it for the gate).
func (p *Pipeline) finishEval(tid core.TenantID, ec *evalCtx) {
	p.mu.Lock()
	fired := p.lastFired[tid]
	cooled := ec.worst.ts-fired >= int64(ec.slo.Cooldown)
	trigger := ec.worst.severity >= 1 && (fired == 0 || cooled)
	suppressed := ec.worst.severity >= 1 && !trigger
	if trigger {
		p.lastFired[tid] = ec.worst.ts
	}
	p.mu.Unlock()

	if m := p.tel.Load(); m != nil {
		m.evals.Add(ec.evals)
		m.resets.Add(ec.resets)
		if suppressed {
			m.suppressions.Inc()
		}
	}
	if trigger {
		traceID := ec.traceID
		if traceID == 0 && p.TraceOf != nil {
			// Pull path: the trace of the sweep query that gathered the
			// violating element's records.
			traceID = p.TraceOf(ec.worst.elem)
		}
		p.fire(tid, ec.slo, ec.worst, traceID)
	}
	if ec.now > 0 {
		if n := p.Incidents.Tick(ec.now); n > 0 {
			if m := p.tel.Load(); m != nil {
				m.resolved.Add(uint64(n))
			}
		}
	}
}

// AfterSweep is the Monitor hook: evaluate one sweep's records through
// every attached detector, gate through the tenant's SLO, and on
// trigger diagnose-journal-correlate. The err argument (per-machine
// sweep failures) is ignored: partial records still evaluate, and
// missing elements simply do not advance their series.
func (p *Pipeline) AfterSweep(tid core.TenantID, recs map[core.ElementID]core.Record, _ error) {
	p.mu.Lock()
	ec := p.beginEval(tid)
	for id, rec := range recs {
		p.evalRecord(tid, id, rec, &ec)
	}
	p.mu.Unlock()
	p.finishEval(tid, &ec)
}

// Observe is the push-ingest hook: evaluate records the moment they
// arrive off a stream instead of waiting for the next sweep. Detection
// latency therefore tracks the stream cadence, not the sweep period —
// the point of push ingest. Safe to call concurrently with AfterSweep
// (per-series detector state is shared under p.mu, so a machine moving
// between push and fallback-sweep keeps its baselines).
func (p *Pipeline) Observe(tid core.TenantID, recs []core.Record) {
	p.ObserveTraced(tid, recs, 0)
}

// ObserveTraced is Observe carrying the distributed trace id of the
// push frame that delivered recs, so a trigger's event and incident
// reference the exact frame whose records fired them.
func (p *Pipeline) ObserveTraced(tid core.TenantID, recs []core.Record, traceID uint64) {
	if len(recs) == 0 {
		return
	}
	p.mu.Lock()
	ec := p.beginEval(tid)
	ec.traceID = traceID
	for _, rec := range recs {
		p.evalRecord(tid, rec.Element, rec, &ec)
	}
	p.mu.Unlock()
	p.finishEval(tid, &ec)
}

// stateFor returns (creating if needed) one series' detector state.
// Callers hold p.mu. Creation is the only allocating path; quiescent
// steady-state evaluation performs map lookups on existing states only.
func (p *Pipeline) stateFor(tid core.TenantID, eid core.ElementID, attr core.AttrID) (*seriesState, seriesClass) {
	k := seriesKey{tid, eid, attr}
	st := p.series[k]
	if st == nil {
		var cls seriesClass
		if attr <= core.SchemaMax {
			cls = schemaClasses[attr]
		} else {
			cls = classify(attr)
		}
		st = &seriesState{class: cls}
		p.series[k] = st
	}
	return st, st.class
}

// fire runs the automatic diagnosis for one trigger, journals the
// evidence, and folds the event into an incident. traceID, when
// non-zero, links the event (and its incident) to the distributed trace
// of the query or push frame that carried the triggering records, and
// pins that trace in the span store.
func (p *Pipeline) fire(tid core.TenantID, slo SLO, worst violation, traceID uint64) {
	window := time.Duration(slo.Window)
	ev := history.Event{
		TS:       worst.ts,
		Tenant:   tid,
		Element:  worst.elem,
		Detector: worst.detector,
		Attr:     core.AttrName(worst.attr),
		Value:    worst.value,
		Baseline: worst.baseline,
		DropRate: worst.dropRate,
		WindowNS: int64(window),
		TraceID:  traceID,
	}
	if rep, err := p.Store.DiagnoseStack(tid, window, worst.ts); err == nil {
		ev.Stack = rep
		ev.Summary = rep.String()
	}
	if p.Net != nil {
		if net := p.Net(tid); net != nil && len(net.Chains) > 0 {
			if rep, err := p.Store.DiagnoseChain(tid, window, worst.ts, net); err == nil {
				ev.Chain = rep
				if ev.Summary != "" {
					ev.Summary += "; "
				}
				ev.Summary += rep.String()
			}
		}
	}
	if ev.Summary == "" {
		ev.Summary = fmt.Sprintf("%s anomaly at %s (%s=%.0f), window too thin to diagnose",
			worst.detector, worst.elem, ev.Attr, worst.value)
	}

	latency := int64(0)
	if worst.lastGood > 0 && worst.ts > worst.lastGood {
		latency = worst.ts - worst.lastGood
	}
	id, opened := p.Incidents.Observe(&ev, latency)
	ev.IncidentID = id
	seq := p.Journal.Append(ev)
	p.Incidents.attachSeq(id, seq)
	if p.Spans != nil && traceID != 0 {
		p.Spans.Pin(traceID)
	}

	if m := p.tel.Load(); m != nil {
		m.triggers.Inc()
		if latency > 0 {
			m.latency.Observe(float64(latency))
		}
		if opened {
			m.opened.Inc()
		}
	}
}

// attachSeq records a journal sequence number on an incident after the
// event landed (the seq is only known post-append).
func (c *Correlator) attachSeq(id, seq int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, in := range c.open {
		if in.ID == id {
			for i, s := range in.EventSeqs {
				if s == 0 {
					in.EventSeqs[i] = seq
					return
				}
			}
			return
		}
	}
}
