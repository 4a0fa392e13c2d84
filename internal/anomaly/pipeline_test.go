package anomaly

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"perfsight/internal/core"
	"perfsight/internal/history"
)

const testTenant = core.TenantID("t1")

// pipeLab is a pipeline wired to a real store and journal, fed synthetic
// sweeps directly (what the Monitor's AfterSweep hook would deliver).
type pipeLab struct {
	store   *history.Store
	journal *history.Journal
	p       *Pipeline
}

func newPipeLab(cfg Config) *pipeLab {
	store := history.New(history.Config{})
	journal := history.NewJournal(64)
	return &pipeLab{store: store, journal: journal, p: NewPipeline(store, journal, cfg)}
}

// sweep stores and evaluates one sweep's records for testTenant.
func (l *pipeLab) sweep(ts int64, recs map[core.ElementID]core.Record) {
	for eid, rec := range recs {
		rec.Timestamp = ts
		rec.Element = eid
		recs[eid] = rec
		l.store.Append(testTenant, rec)
	}
	l.p.AfterSweep(testTenant, recs, nil)
}

// dropRecs builds per-element records carrying a cumulative drop counter.
func dropRecs(drops map[core.ElementID]float64) map[core.ElementID]core.Record {
	recs := make(map[core.ElementID]core.Record, len(drops))
	for eid, d := range drops {
		recs[eid] = core.Record{Attrs: []core.Attr{
			{ID: core.AttrKind, Value: float64(core.KindVSwitch)},
			{ID: core.AttrDropPackets, Value: d},
		}}
	}
	return recs
}

func TestPipelineDropSpikeFiresOnceWithCooldown(t *testing.T) {
	l := newPipeLab(Config{SLO: SLOConfig{Default: SLO{
		DropRatePPS:      100,
		Window:           Duration(3 * time.Second),
		Cooldown:         Duration(5 * time.Second),
		DisableBaselines: true,
	}}})
	drops := func(now int64) map[core.ElementID]float64 {
		d := 0.0
		if now >= 5e9 {
			d = float64(now-4e9) / 1e6 // 1000 pps from t=5s on
		}
		return map[core.ElementID]float64{"m0/vswitch": d, "m1/vswitch": 0}
	}
	for ts := int64(1e9); ts <= 8e9; ts += 1e9 {
		l.sweep(ts, dropRecs(drops(ts)))
	}
	evs := l.journal.Since(0, 0)
	if len(evs) != 1 {
		t.Fatalf("pipeline emitted %d events, want 1 (cooldown suppresses the rest)", len(evs))
	}
	ev := evs[0]
	if ev.Element != "m0/vswitch" || ev.Tenant != testTenant {
		t.Fatalf("event blames %s/%s", ev.Tenant, ev.Element)
	}
	if ev.Detector != DetectorDropRate || ev.Attr != "drop_packets" {
		t.Fatalf("event detector/attr = %s/%s", ev.Detector, ev.Attr)
	}
	if ev.DropRate < 900 || ev.DropRate > 1100 {
		t.Fatalf("event drop rate = %v, want ~1000 pps", ev.DropRate)
	}
	if ev.Stack == nil {
		t.Fatalf("event carries no stack evidence (summary %q)", ev.Summary)
	}
	if len(ev.Stack.Ranked) == 0 || ev.Stack.Ranked[0].Element != "m0/vswitch" {
		t.Fatalf("stack evidence does not rank the dropping element first: %+v", ev.Stack.Ranked)
	}
	if ev.IncidentID == 0 {
		t.Fatal("event not linked to an incident")
	}

	in, ok := l.p.Incidents.Get(ev.IncidentID)
	if !ok || in.State != StateOpen {
		t.Fatalf("incident %d = %+v ok=%v", ev.IncidentID, in, ok)
	}
	if in.EventCount != 1 || len(in.EventSeqs) != 1 || in.EventSeqs[0] != ev.Seq {
		t.Fatalf("incident timeline = %+v, want event seq %d", in, ev.Seq)
	}
	// Detection latency: last healthy sample at t=4s, trigger at t=5s.
	if in.DetectionNS != 1e9 {
		t.Fatalf("DetectionNS = %d, want 1s", in.DetectionNS)
	}

	// Past the cooldown, the still-spiking element fires again — and the
	// recurrence folds into the SAME incident (same root cause, inside
	// the correlation window), not a second page.
	l.sweep(11e9, dropRecs(drops(11e9)))
	evs = l.journal.Since(0, 0)
	if len(evs) != 2 {
		t.Fatalf("post-cooldown sweep: %d events, want 2", len(evs))
	}
	if evs[1].IncidentID != ev.IncidentID {
		t.Fatalf("recurrence opened incident %d, want %d", evs[1].IncidentID, ev.IncidentID)
	}
	if l.p.Incidents.OpenCount() != 1 {
		t.Fatalf("OpenCount = %d, want 1", l.p.Incidents.OpenCount())
	}
}

// Detection latency must be computed on the RECORD clock — the gap from
// the violating record's timestamp back to the series' last healthy
// sample — never from evaluation wall time. The test drives Observe
// (the push-ingest hook) with record timestamps near epoch and inserts
// a real wall-clock delay before delivering the violating record: if
// any wall time leaked into the math, DetectionNS could not come out as
// the exact 1s record-clock gap.
func TestPipelineObserveLatencyFromRecordClock(t *testing.T) {
	l := newPipeLab(Config{SLO: SLOConfig{Default: SLO{
		DropRatePPS:      100,
		Window:           Duration(3 * time.Second),
		DisableBaselines: true,
	}}})
	rec := func(ts int64, drops float64) core.Record {
		r := core.Record{
			Timestamp: ts,
			Element:   "m0/vswitch",
			Attrs: []core.Attr{
				{ID: core.AttrKind, Value: float64(core.KindVSwitch)},
				{ID: core.AttrDropPackets, Value: drops},
			},
		}
		l.store.Append(testTenant, r)
		return r
	}
	// Healthy stream: four quiet arrivals, record clock 1s apart.
	for ts := int64(1e9); ts <= 4e9; ts += 1e9 {
		l.p.Observe(testTenant, []core.Record{rec(ts, 0)})
	}
	// The violating record carries ts=5s but is DELIVERED late — the
	// wall clock advances well past the 1s record-clock gap first.
	violating := rec(5e9, 1000) // 1000 pps over the 1s record interval
	time.Sleep(60 * time.Millisecond)
	l.p.Observe(testTenant, []core.Record{violating})

	evs := l.journal.Since(0, 0)
	if len(evs) != 1 {
		t.Fatalf("Observe emitted %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.TS != 5e9 {
		t.Fatalf("event TS = %d, want the violating record's 5e9", ev.TS)
	}
	in, ok := l.p.Incidents.Get(ev.IncidentID)
	if !ok {
		t.Fatalf("incident %d missing", ev.IncidentID)
	}
	// Exactly the record-clock gap (5s-4s); wall time at evaluation was
	// ~56 years after these timestamps plus a 60ms delivery delay, so
	// any wall-clock contamination breaks the equality.
	if in.DetectionNS != 1e9 {
		t.Fatalf("DetectionNS = %d, want exactly 1e9 (record clock)", in.DetectionNS)
	}
}

// Observe and AfterSweep share per-series detector state: a machine
// that falls back from push to sweep keeps its baselines and rate
// windows instead of re-learning from scratch.
func TestPipelineObserveSharesStateWithSweep(t *testing.T) {
	l := newPipeLab(Config{SLO: SLOConfig{Default: SLO{
		DropRatePPS:      100,
		DisableBaselines: true,
	}}})
	mk := func(ts int64, drops float64) core.Record {
		return core.Record{
			Timestamp: ts,
			Element:   "m0/vswitch",
			Attrs: []core.Attr{
				{ID: core.AttrKind, Value: float64(core.KindVSwitch)},
				{ID: core.AttrDropPackets, Value: drops},
			},
		}
	}
	// Seed the rate window via the push path...
	l.p.Observe(testTenant, []core.Record{mk(1e9, 0)})
	// ...then deliver the spike via the sweep path. If state were not
	// shared, the sweep's first sample would only seed its own window
	// and nothing could fire.
	l.p.AfterSweep(testTenant, map[core.ElementID]core.Record{
		"m0/vswitch": mk(2e9, 1000),
	}, nil)
	if evs := l.journal.Since(0, 0); len(evs) != 1 {
		t.Fatalf("sweep after push seed emitted %d events, want 1 (state not shared?)", len(evs))
	}
}

func TestPipelineBaselineDetectsGaugeShift(t *testing.T) {
	l := newPipeLab(Config{})
	gauge := func(v float64) map[core.ElementID]core.Record {
		return map[core.ElementID]core.Record{"m0/vswitch": {Attrs: []core.Attr{
			{ID: core.AttrQueueLen, Value: v},
		}}}
	}
	ts := int64(0)
	next := func(v float64) {
		ts += 1e9
		l.sweep(ts, gauge(v))
	}
	for i := 0; i < 10; i++ {
		next(3) // learn a flat baseline
	}
	// Default persistence is 3: two outliers are a blip...
	next(500)
	next(500)
	if evs := l.journal.Since(0, 0); len(evs) != 0 {
		t.Fatalf("blip below persistence emitted %d events", len(evs))
	}
	// ...the third triggers.
	next(500)
	evs := l.journal.Since(0, 0)
	if len(evs) != 1 {
		t.Fatalf("persistent shift emitted %d events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Detector != DetectorBaseline || ev.Attr != "queue_len" {
		t.Fatalf("event detector/attr = %s/%s", ev.Detector, ev.Attr)
	}
	if ev.Value != 500 || ev.Baseline > 100 {
		t.Fatalf("event value/baseline = %v/%v", ev.Value, ev.Baseline)
	}
	if ev.Summary == "" {
		t.Fatal("event has no summary")
	}
	// No drop evidence exists, so the incident keys on the element.
	in, ok := l.p.Incidents.Get(ev.IncidentID)
	if !ok || in.RootCause != "m0/vswitch" {
		t.Fatalf("incident = %+v ok=%v", in, ok)
	}
	// Detection latency spans the out-of-band streak back to the last
	// in-band sample (t=10s -> trigger t=13s).
	if in.DetectionNS != 3e9 {
		t.Fatalf("DetectionNS = %d, want 3s", in.DetectionNS)
	}
}

func TestPipelineIncidentResolvesWhenSeriesRecover(t *testing.T) {
	l := newPipeLab(Config{
		SLO: SLOConfig{Default: SLO{
			DropRatePPS: 100, Cooldown: Duration(2 * time.Second), DisableBaselines: true,
		}},
		Correlator: CorrelatorConfig{Window: 30 * time.Second, ResolveAfter: 4 * time.Second},
	})
	total := 0.0
	ts := int64(0)
	next := func(pps float64) {
		ts += 1e9
		total += pps
		l.sweep(ts, dropRecs(map[core.ElementID]float64{"m0/vswitch": total}))
	}
	next(0)
	next(0)
	next(1000) // trigger
	if l.p.Incidents.OpenCount() != 1 {
		t.Fatalf("OpenCount after spike = %d", l.p.Incidents.OpenCount())
	}
	// The series goes quiet; sweeps keep ticking the correlator clock.
	for i := 0; i < 5; i++ {
		next(0)
	}
	if l.p.Incidents.OpenCount() != 0 {
		t.Fatalf("incident still open %v after recovery", time.Duration(ts-3e9))
	}
	res := l.p.Incidents.List(StateResolved, 0)
	if len(res) != 1 || res[0].ResolvedAt == 0 {
		t.Fatalf("resolved list = %+v", res)
	}
}

func TestPipelinePerTenantSLO(t *testing.T) {
	l := newPipeLab(Config{SLO: SLOConfig{
		Default: SLO{DropRatePPS: 1000, DisableBaselines: true},
		Tenants: map[core.TenantID]SLO{"gold": {DropRatePPS: 10}},
	}})
	sweepFor := func(tid core.TenantID, ts int64, drops float64) {
		recs := dropRecs(map[core.ElementID]float64{core.ElementID(string(tid) + "/vswitch"): drops})
		for eid, rec := range recs {
			rec.Timestamp = ts
			rec.Element = eid
			recs[eid] = rec
			l.store.Append(tid, rec)
		}
		l.p.AfterSweep(tid, recs, nil)
	}
	for _, tid := range []core.TenantID{"best-effort", "gold"} {
		sweepFor(tid, 1e9, 0)
		sweepFor(tid, 2e9, 60) // 60 pps: over gold's SLO, under the default
	}
	evs := l.journal.Since(0, 0)
	if len(evs) != 1 || evs[0].Tenant != "gold" {
		t.Fatalf("events = %+v, want exactly one for tenant gold", evs)
	}
}

func TestPipelineCounterResetAndGapStayQuiet(t *testing.T) {
	l := newPipeLab(Config{
		SLO:    SLOConfig{Default: SLO{DropRatePPS: 500, DisableBaselines: true}},
		MaxGap: 10 * time.Second,
	})
	steps := []struct {
		ts    int64
		drops float64
	}{
		{1e9, 1000},
		{2e9, 1100},  // 100 pps, under threshold
		{3e9, 50},    // agent restart: counter reset, not a -1050 pps event
		{4e9, 150},   // 100 pps from the new seed
		{60e9, 9000}, // 56s sweep blackout: not a (9000-150)/56s judgement
		{61e9, 9100}, // 100 pps again
	}
	for _, s := range steps {
		l.sweep(s.ts, dropRecs(map[core.ElementID]float64{"m0/vswitch": s.drops}))
	}
	if evs := l.journal.Since(0, 0); len(evs) != 0 {
		t.Fatalf("reset/gap emitted %d events: %+v", len(evs), evs)
	}
}

// TestPipelineConcurrentEvalAndAppend races detector evaluation against
// live store appends and a journal subscriber; run under -race (see
// make test) it proves the pipeline takes no unlocked shortcuts.
func TestPipelineConcurrentEvalAndAppend(t *testing.T) {
	l := newPipeLab(Config{SLO: SLOConfig{Default: SLO{
		DropRatePPS: 100, Cooldown: Duration(time.Second), DisableBaselines: true,
	}}})
	sub := l.journal.Subscribe(16)
	var drained sync.WaitGroup
	drained.Add(1)
	go func() {
		defer drained.Done()
		for range sub.C() {
		}
	}()

	const sweeps = 300
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the monitor: sweep, evaluate, occasionally trigger
		defer wg.Done()
		total := 0.0
		for i := int64(1); i <= sweeps; i++ {
			if i%10 == 0 {
				total += 5000 // a spike every 10th sweep
			}
			l.sweep(i*1e9, dropRecs(map[core.ElementID]float64{"m0/vswitch": total, "m1/vswitch": 0}))
		}
	}()
	go func() { // an unrelated writer appending to the same store
		defer wg.Done()
		for i := int64(1); i <= sweeps; i++ {
			l.store.Append("other-tenant", core.Record{
				Timestamp: i * 1e9,
				Element:   core.ElementID(fmt.Sprintf("m%d/nic", i%4)),
				Attrs:     []core.Attr{{ID: core.AttrRxPackets, Value: float64(i)}},
			})
		}
	}()
	wg.Wait()
	sub.Close()
	drained.Wait()
	if evs := l.journal.Since(0, 0); len(evs) == 0 {
		t.Fatal("concurrent run triggered nothing")
	}
}

// A sweep is a map, so equally severe violations arrive in a random
// order; the event must still blame the same element every time (the
// smallest ID), or the incident it folds into would vary too.
func TestAfterSweepTieBreakIsOrderFree(t *testing.T) {
	for i := 0; i < 40; i++ {
		l := newPipeLab(Config{SLO: SLOConfig{Default: SLO{DropRatePPS: 100, DisableBaselines: true}}})
		l.sweep(1e9, dropRecs(map[core.ElementID]float64{"a": 0, "b": 0, "c": 0}))
		l.sweep(2e9, dropRecs(map[core.ElementID]float64{"a": 1000, "b": 1000, "c": 1000}))
		evs := l.journal.Since(0, 0)
		if len(evs) != 1 || evs[0].Element != "a" {
			t.Fatalf("pipeline %d: first event blames %v, want a", i, evs)
		}
	}
}
