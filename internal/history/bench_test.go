package history

import (
	"strconv"
	"testing"
	"time"

	"perfsight/internal/core"
)

// benchRecord is a representative sweep record: kind plus the full
// counter set an agent returns for a stack element.
func benchRecord(eid core.ElementID, ts int64) core.Record {
	return core.Record{
		Timestamp: ts,
		Element:   eid,
		Attrs: []core.Attr{
			{ID: core.AttrKind, Value: float64(core.KindVSwitch)},
			{ID: core.AttrRxPackets, Value: float64(ts)},
			{ID: core.AttrRxBytes, Value: float64(ts) * 1448},
			{ID: core.AttrTxPackets, Value: float64(ts)},
			{ID: core.AttrTxBytes, Value: float64(ts) * 1448},
			{ID: core.AttrDropPackets, Value: 0},
			{ID: core.AttrQueueLen, Value: 3},
		},
	}
}

// TestAppendAllocBudget pins the steady-state allocation cost of storing
// one swept record at its measured value: the rings are preallocated, so
// a warmed series must not allocate per append.
func TestAppendAllocBudget(t *testing.T) {
	const budget = 0
	s := New(Config{MaxPointsPerSeries: 64, DownsampleStep: 10 * time.Millisecond, Retention: time.Second})
	rec := benchRecord("m0/vswitch", 0)
	ts := int64(0)
	// Warm: allocate the element group, the attr series, and their rings,
	// and spin the rings past full so step-down folding is on the path.
	for i := 0; i < 200; i++ {
		ts += int64(time.Millisecond)
		rec.Timestamp = ts
		s.Append(testTenant, rec)
	}
	got := testing.AllocsPerRun(500, func() {
		ts += int64(time.Millisecond)
		rec.Timestamp = ts
		for i := range rec.Attrs[1:] {
			rec.Attrs[i+1].Value++
		}
		s.Append(testTenant, rec)
	})
	t.Logf("steady-state Append allocs/op = %.2f (budget %d)", got, budget)
	if got > budget {
		t.Fatalf("Append allocs/op = %.2f exceeds budget %d", got, budget)
	}
}

// TestIntervalsAllocBudget pins the allocation cost of one Intervals
// call over a 45-element, 8-attr tenant at its measured value: the
// element list, the result map, and one slab holding every Cur and Prev
// attr.
func TestIntervalsAllocBudget(t *testing.T) {
	const budget = 6
	s := New(Config{})
	for e := 0; e < 45; e++ {
		eid := core.ElementID("m0/el" + strconv.Itoa(e))
		for i := int64(1); i <= 16; i++ {
			rec := benchRecord(eid, i*int64(time.Second))
			rec.Attrs = append(rec.Attrs, core.Attr{ID: core.AttrQueueCap, Value: 64})
			s.Append(testTenant, rec)
		}
	}
	got := testing.AllocsPerRun(200, func() {
		if ivs := s.Intervals(testTenant, nil, 3*time.Second, 0); len(ivs) != 45 {
			t.Fatalf("Intervals = %d elements, want 45", len(ivs))
		}
	})
	t.Logf("Intervals allocs/op = %.2f (budget %d)", got, budget)
	if got > budget {
		t.Fatalf("Intervals allocs/op = %.2f exceeds budget %d", got, budget)
	}
}

// BenchmarkHistoryAppend measures the flight recorder's per-record write
// cost at steady state (rings full, step-down active).
func BenchmarkHistoryAppend(b *testing.B) {
	s := New(Config{MaxPointsPerSeries: 512, DownsampleStep: 10 * time.Millisecond, Retention: time.Minute})
	rec := benchRecord("m0/vswitch", 0)
	ts := int64(0)
	for i := 0; i < 1024; i++ {
		ts += int64(time.Millisecond)
		rec.Timestamp = ts
		s.Append(testTenant, rec)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts += int64(time.Millisecond)
		rec.Timestamp = ts
		s.Append(testTenant, rec)
	}
}

// BenchmarkHistoryInterval measures synthesizing one diagnosis interval
// from stored history — the read path /diagnose leans on.
func BenchmarkHistoryInterval(b *testing.B) {
	s := New(Config{})
	for i := int64(1); i <= 512; i++ {
		s.Append(testTenant, benchRecord("m0/vswitch", i*int64(time.Second)))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Interval(testTenant, "m0/vswitch", 3*time.Second, 0); !ok {
			b.Fatal("no interval")
		}
	}
}

// BenchmarkHistoryDiagnoseStack measures a full Algorithm 1 run from
// history over a 16-element tenant.
func BenchmarkHistoryDiagnoseStack(b *testing.B) {
	s := New(Config{})
	for e := 0; e < 16; e++ {
		eid := core.ElementID("m0/el" + strconv.Itoa(e))
		for i := int64(1); i <= 64; i++ {
			s.Append(testTenant, benchRecord(eid, i*int64(time.Second)))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.DiagnoseStack(testTenant, 3*time.Second, 0); err != nil {
			b.Fatal(err)
		}
	}
}
