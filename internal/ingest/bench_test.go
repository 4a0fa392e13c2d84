package ingest

import (
	"context"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"perfsight/internal/core"
	"perfsight/internal/history"
)

const benchTenant = core.TenantID("t1")

// benchRecords builds one gather's worth of records: elems elements with
// four counter attrs each, timestamped ts.
func benchRecords(elems int, ts int64) []core.Record {
	recs := make([]core.Record, elems)
	for i := range recs {
		recs[i] = core.Record{
			Timestamp: ts,
			Element:   core.ElementID("m0/vm" + strconv.Itoa(i) + "/vnic"),
			Attrs: []core.Attr{
				{ID: core.AttrRxBytes, Value: float64(ts + int64(i))},
				{ID: core.AttrTxBytes, Value: float64(ts)},
				{ID: core.AttrRxPackets, Value: float64(ts / 1000)},
				{ID: core.AttrDropPackets, Value: 0},
			},
		}
	}
	return recs
}

// TestIngestSustains10k is the ROADMAP item 2 gate: the push ingest path
// (bounded queue → store append) must sustain at least 10k element
// updates/s with a concurrent producer and drain. The measured rate on
// dev hardware is orders of magnitude higher; the assertion is a floor
// that catches an accidentally serialized or allocating path, not a
// race-to-the-metal benchmark.
func TestIngestSustains10k(t *testing.T) {
	const (
		elems   = 16
		batches = 5000
		sentin  = ^uint64(0)
	)
	store := history.New(history.Config{MaxPointsPerSeries: 128})
	q := NewQueue(256)

	// Precompute every batch so producer-side record construction stays
	// out of the measured window.
	in := make([]Batch, batches)
	for i := range in {
		in[i] = Batch{Machine: "m0", Seq: uint64(i + 1),
			Records: benchRecords(elems, int64(i+1)*int64(time.Millisecond))}
	}

	var appended atomic.Int64
	done := make(chan struct{})
	ctx := context.Background()
	go func() {
		for {
			b, ok := q.Take(ctx)
			if !ok {
				return
			}
			if b.Seq == sentin {
				close(done)
				return
			}
			for _, rec := range b.Records {
				store.Append(benchTenant, rec)
			}
			appended.Add(int64(len(b.Records)))
		}
	}()

	start := time.Now()
	for i := range in {
		q.Push(in[i])
	}
	q.Push(Batch{Seq: sentin})
	<-done
	elapsed := time.Since(start)

	rate := float64(appended.Load()) / elapsed.Seconds()
	t.Logf("ingest sustained %.0f element updates/s (%d updates in %v, %d batches dropped)",
		rate, appended.Load(), elapsed, q.Dropped())
	if rate < 10_000 {
		t.Fatalf("ingest rate %.0f updates/s below the 10k floor", rate)
	}
	if appended.Load() == 0 {
		t.Fatal("nothing reached the store")
	}
}

// TestIngestAllocBudget pins the steady-state allocation cost of moving
// one 16-element batch through the ingest path (queue push + take +
// warmed store appends) at its measured value.
func TestIngestAllocBudget(t *testing.T) {
	const budget = 0
	store := history.New(history.Config{MaxPointsPerSeries: 64})
	q := NewQueue(8)
	ctx := context.Background()
	recs := benchRecords(16, 0)
	ts := int64(0)
	step := func() {
		ts += int64(time.Millisecond)
		for i := range recs {
			recs[i].Timestamp = ts
			recs[i].Attrs[0].Value++
		}
		q.Push(Batch{Machine: "m0", Seq: uint64(ts), Records: recs})
		b, _ := q.Take(ctx)
		for _, rec := range b.Records {
			store.Append(benchTenant, rec)
		}
	}
	// Warm: series groups, rings, and the queue channel all settle.
	for i := 0; i < 200; i++ {
		step()
	}
	got := testing.AllocsPerRun(500, step)
	t.Logf("steady-state ingest allocs/batch = %.2f (budget %d)", got, budget)
	if got > budget {
		t.Fatalf("ingest allocs/batch = %.2f exceeds budget %d", got, budget)
	}
}

// BenchmarkIngestPipeline is the single-threaded cost of one batch
// through queue + store: the per-record share is what bounds sustainable
// stream throughput.
func BenchmarkIngestPipeline(b *testing.B) {
	store := history.New(history.Config{MaxPointsPerSeries: 128})
	q := NewQueue(8)
	ctx := context.Background()
	recs := benchRecords(16, 0)
	ts := int64(0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ts += int64(time.Millisecond)
		for j := range recs {
			recs[j].Timestamp = ts
			recs[j].Attrs[0].Value++
		}
		q.Push(Batch{Machine: "m0", Seq: uint64(i), Records: recs})
		batch, _ := q.Take(ctx)
		for _, rec := range batch.Records {
			store.Append(benchTenant, rec)
		}
	}
	b.ReportMetric(float64(b.N*len(recs))/b.Elapsed().Seconds(), "updates/s")
}

// BenchmarkQueue is the bare queue push+take cost (no store), the upper
// bound on batch-passing overhead.
func BenchmarkQueue(b *testing.B) {
	q := NewQueue(8)
	ctx := context.Background()
	recs := benchRecords(4, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Push(Batch{Seq: uint64(i), Records: recs})
		q.Take(ctx)
	}
}
