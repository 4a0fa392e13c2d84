package main

import (
	"context"
	"runtime"
	"time"

	"perfsight/internal/ingest"
	"perfsight/internal/wire"
)

// tracePushIngest is the traced run: a slice of the real workload for the
// untraced CPU base and the figures only live streams have, then the same
// layers stepped in one goroutine on fresh same-seed agents (the served
// ones belong to their stream goroutines), then the telemetry probe.
func tracePushIngest(o options, sz pushIngestSize, w *pushWorld, out *outcome) error {
	d := o.window(0.4)
	base := w.runFor(d, o.seed)
	w.settle(&base)
	detectMS, fromInjectMS := w.check(out, &base, d)
	_, baseCPU := base.sl.medians()
	out.samples["anomaly.detect_ms"] = describe(detectMS, "ms")
	out.samples["ingest.lag_ms"] = describe(base.lagMS, "ms")
	lag := base.lagMS.sorted()
	out.set("ingest.lag_ms_p50", lag.quantile(0.5))
	out.set("ingest.lag_ms_p90", lag.quantile(0.9))
	out.set("ingest.queue_depth_max", float64(w.maxDepth.Load()))
	out.set("ingest.frames_per_s", ratio(float64(base.frames), base.sl.m.wall.Seconds()))
	out.set("ingest.dropped_batches", float64(base.dropped))
	out.set("ingest.seq_gaps", float64(base.gaps))
	out.set("ingest.throttles", float64(w.reg.Counter("perfsight_ingest_throttles_total", "").Value()))
	out.set("wire.bytes_per_update", ratio(float64(base.rxBytes), float64(base.records)))
	_, events, _ := w.journal.Stats()
	out.set("anomaly.events", float64(events))
	out.set("anomaly.incidents_opened", float64(len(w.pipe.Incidents.List("", 0))))
	out.set("anomaly.detect_ms_p90", detectMS.sorted().quantile(0.9))
	out.set("anomaly.detect_from_inject_ms_p50", fromInjectMS.sorted().quantile(0.5))

	heap0 := heapLiveMB()
	agents := newPushAgents(o.seed, sz)
	store, _, pipe := pushPipeline()
	queue := ingest.NewQueue(0)
	sessions := make([]session, len(agents))
	for i := range sessions {
		sessions[i] = newSession()
	}
	ctx := context.Background()
	rec := newRecorder(spanFetch, spanDecode, spanAppend)
	var c chain
	n := sz.TenantSize
	for deadline := time.Now().Add(o.window(0.5)); time.Now().Before(deadline); {
		rec.nextRound()
		round := rec.begin(spanRound)
		for i, pa := range agents {
			recs, err := c.gather(rec, pa.a, sessions[i],
				&wire.Message{Type: wire.TypeStreamData, ID: 2, Stream: &wire.StreamInfo{Seq: uint64(rec.round)}})
			if err != nil {
				return err
			}
			rec.time(spanQueue, func() {
				queue.Push(ingest.Batch{Machine: pa.mid, Seq: uint64(rec.round), Records: recs})
				b, _ := queue.Take(ctx)
				recs = b.Records
			})
			rec.time(spanAppend, func() {
				for k, tid := range pa.tenants {
					for _, r := range recs[k*n : (k+1)*n] {
						store.Append(tid, r)
					}
				}
			})
			rec.time(spanObserve, func() {
				for k, tid := range pa.tenants {
					pipe.ObserveTraced(tid, recs[k*n:(k+1)*n], 0)
				}
			})
		}
		rec.end(round)
	}
	resident := store.Stats().Resident
	out.set("history.resident_points", float64(resident))
	out.set("history.bytes_per_point", ratio((heapLiveMB()-heap0)*1e6, float64(resident)))
	runtime.KeepAlive(store)

	if err := probeWireSizes(out, agents[0].a); err != nil {
		return err
	}
	probeTraceComplete(rec, o.window(0.05))

	layers := layerMap(selfTimes(rec.spans))
	c.report(out, layers, baseCPU)
	out.set("agent.fetch_us_per_record.direct", layers.nsPer(spanFetch, c.records)/1e3) // every element is on the direct channel
	out.set("ingest.queue_ns_per_batch", layers.nsPer(spanQueue, c.frames))
	out.set("anomaly.observe_ns_per_record", layers.nsPer(spanObserve, c.records))
	return writeTrace(o.tracePath("push-ingest"), traceFile{Workload: "push-ingest", Seed: o.seed, Spans: rec.spans})
}
