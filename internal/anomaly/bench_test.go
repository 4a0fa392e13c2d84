package anomaly

import (
	"fmt"
	"strconv"
	"testing"

	"perfsight/internal/core"
	"perfsight/internal/history"
)

// benchSweep is a representative quiescent fleet sweep: elems elements,
// each carrying the full counter-and-gauge set an agent returns.
func benchSweep(elems int) map[core.ElementID]core.Record {
	recs := make(map[core.ElementID]core.Record, elems)
	for e := 0; e < elems; e++ {
		eid := core.ElementID("m0/el" + strconv.Itoa(e))
		recs[eid] = core.Record{Element: eid, Attrs: []core.Attr{
			{ID: core.AttrKind, Value: float64(core.KindVSwitch)},
			{ID: core.AttrRxPackets, Value: 0},
			{ID: core.AttrRxBytes, Value: 0},
			{ID: core.AttrTxPackets, Value: 0},
			{ID: core.AttrTxBytes, Value: 0},
			{ID: core.AttrDropPackets, Value: 0},
			{ID: core.AttrQueueLen, Value: 3},
		}}
	}
	return recs
}

// advance moves the sweep one cadence forward: timestamps advance,
// counters climb at a steady (in-band) rate, gauges hold.
func advance(recs map[core.ElementID]core.Record, ts int64) {
	for eid, rec := range recs {
		rec.Timestamp = ts
		for i := range rec.Attrs {
			if core.AttrSemanticsOf(rec.Attrs[i].ID) == core.SemCounter {
				rec.Attrs[i].Value += 1000
			}
		}
		recs[eid] = rec
	}
}

// TestEvalAllocBudget pins the steady-state cost of one pipeline
// evaluation pass at its measured value: detector state lives in
// preallocated per-series structs, so evaluating a quiescent fleet must
// not allocate.
func TestEvalAllocBudget(t *testing.T) {
	const budget = 0
	p := NewPipeline(history.New(history.Config{}), history.NewJournal(16), Config{})
	recs := benchSweep(16)
	ts := int64(0)
	// Warm: allocate every series state and get past the baselines'
	// cold start so the steady-state path is fully judging.
	for i := 0; i < 20; i++ {
		ts += 1e9
		advance(recs, ts)
		p.AfterSweep(testTenant, recs, nil)
	}
	got := testing.AllocsPerRun(500, func() {
		ts += 1e9
		advance(recs, ts)
		p.AfterSweep(testTenant, recs, nil)
	})
	t.Logf("steady-state AfterSweep allocs/op = %.2f (budget %d)", got, budget)
	if got > budget {
		t.Fatalf("AfterSweep allocs/op = %.2f exceeds budget %d", got, budget)
	}
}

// BenchmarkPipelineEval measures one full evaluation pass over a
// quiescent 16-element fleet (the per-sweep overhead the pipeline adds
// to monitoring).
func BenchmarkPipelineEval(b *testing.B) {
	p := NewPipeline(history.New(history.Config{}), history.NewJournal(16), Config{})
	recs := benchSweep(16)
	ts := int64(0)
	for i := 0; i < 20; i++ {
		ts += 1e9
		advance(recs, ts)
		p.AfterSweep(testTenant, recs, nil)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts += 1e9
		advance(recs, ts)
		p.AfterSweep(testTenant, recs, nil)
	}
}

// BenchmarkPipelineEvalPerSeries scales the fleet to show the per-series
// evaluation cost stays flat.
func BenchmarkPipelineEvalPerSeries(b *testing.B) {
	for _, elems := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("elems=%d", elems), func(b *testing.B) {
			p := NewPipeline(history.New(history.Config{}), history.NewJournal(16), Config{})
			recs := benchSweep(elems)
			ts := int64(0)
			for i := 0; i < 20; i++ {
				ts += 1e9
				advance(recs, ts)
				p.AfterSweep(testTenant, recs, nil)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ts += 1e9
				advance(recs, ts)
				p.AfterSweep(testTenant, recs, nil)
			}
		})
	}
}
