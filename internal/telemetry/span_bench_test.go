package telemetry

import (
	"sync"
	"testing"
	"time"
)

// TestSpanAllocBudget pins the steady-state cost of recording one full
// trace — four controller stage spans plus three skew-corrected agent
// spans, summary ring push and span-store handoff — at its measured
// value (0: the trace is pooled, spans live in a fixed array, and store
// ring slots recycle their span slices).
func TestSpanAllocBudget(t *testing.T) {
	const budget = 0
	reg := NewRegistry()
	tr := NewTracer(reg, "controller", 64)
	st := NewSpanStore(reg, 64, 32, 8)
	tr.AttachSpanStore(st, 1, 0)
	// Warm: fill the pool, the stage histograms, and every store ring
	// slot so slices have their steady-state capacity.
	for i := 0; i < 200; i++ {
		completeTrace(tr, false)
	}
	got := testing.AllocsPerRun(500, func() {
		completeTrace(tr, false)
	})
	t.Logf("steady-state trace record allocs/op = %.2f (budget %d)", got, budget)
	if got > budget {
		t.Fatalf("trace record allocs/op = %.2f exceeds budget %d", got, budget)
	}
}

// BenchmarkTraceComplete is the tentpole's hot path: one pooled trace
// per op with the representative span mix, store attached.
func BenchmarkTraceComplete(b *testing.B) {
	reg := NewRegistry()
	tr := NewTracer(reg, "controller", 64)
	st := NewSpanStore(reg, 64, 32, 8)
	tr.AttachSpanStore(st, 1, 0)
	for i := 0; i < 200; i++ {
		completeTrace(tr, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		completeTrace(tr, false)
	}
}

// BenchmarkTraceCompleteParallel stresses the striped summary ring the
// way a fleet sweep does: many goroutines completing traces at once.
func BenchmarkTraceCompleteParallel(b *testing.B) {
	reg := NewRegistry()
	tr := NewTracer(reg, "controller", 256)
	for i := 0; i < 200; i++ {
		completeTrace(tr, false)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			completeTrace(tr, false)
		}
	})
}

// --- old map-per-trace baseline -------------------------------------
//
// Before the span spine, every QueryTrace allocated itself plus a
// map[Stage]time.Duration, and End() copied the map and pushed through
// one global ring mutex. The baseline is reimplemented here verbatim so
// `make bench-trace` keeps proving the win instead of losing the
// comparison point.

type mapTraceSummary struct {
	id     uint64
	target string
	start  time.Time
	total  time.Duration
	stages map[Stage]time.Duration
	err    bool
}

type mapTracer struct {
	next   uint64
	hist   *Histogram
	ringMu sync.Mutex
	ring   []mapTraceSummary
	at     int
}

type mapQueryTrace struct {
	t      *mapTracer
	id     uint64
	target string
	start  time.Time
	mu     sync.Mutex
	stages map[Stage]time.Duration
}

func (t *mapTracer) begin(target string) *mapQueryTrace {
	t.next++
	return &mapQueryTrace{t: t, id: t.next, target: target, start: time.Now()}
}

func (q *mapQueryTrace) record(s Stage, d time.Duration) {
	q.mu.Lock()
	if q.stages == nil {
		q.stages = make(map[Stage]time.Duration, 4)
	}
	q.stages[s] += d
	q.mu.Unlock()
	q.t.hist.Observe(float64(d.Nanoseconds()))
}

func (q *mapQueryTrace) end() {
	total := time.Since(q.start)
	q.mu.Lock()
	stages := make(map[Stage]time.Duration, len(q.stages))
	for k, v := range q.stages {
		stages[k] = v
	}
	q.mu.Unlock()
	t := q.t
	t.ringMu.Lock()
	t.ring[t.at] = mapTraceSummary{id: q.id, target: q.target, start: q.start, total: total, stages: stages}
	t.at = (t.at + 1) % len(t.ring)
	t.ringMu.Unlock()
}

// BenchmarkTraceCompleteMapBaseline measures the pre-refactor design:
// map-per-trace stage storage and a single-mutex summary ring.
func BenchmarkTraceCompleteMapBaseline(b *testing.B) {
	reg := NewRegistry()
	mt := &mapTracer{
		hist: reg.Histogram("perfsight_bench_stage_ns", "baseline"),
		ring: make([]mapTraceSummary, 64),
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		qt := mt.begin("m0")
		qt.record(StageEncode, 10*time.Microsecond)
		qt.record(StageGather, 80*time.Microsecond)
		qt.record(StageTransport, 100*time.Microsecond)
		qt.record(StageDecode, 5*time.Microsecond)
		qt.end()
	}
}

// BenchmarkSpanStoreGet measures the cold-path read (deep copy).
func BenchmarkSpanStoreGet(b *testing.B) {
	reg := NewRegistry()
	tr := NewTracer(reg, "controller", 64)
	st := NewSpanStore(reg, 64, 32, 8)
	tr.AttachSpanStore(st, 1, 0)
	id := completeTrace(tr, false)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := st.Get(id); !ok {
			b.Fatal("trace lost")
		}
	}
}
