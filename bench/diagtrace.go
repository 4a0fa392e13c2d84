package main

import (
	"runtime"
	"time"

	"perfsight/internal/controller"
	"perfsight/internal/core"
	"perfsight/internal/diagnosis"
	"perfsight/internal/history"
)

// Span names of the stepped query path.
const (
	spanIntervals = "history.intervals"
	spanSeries    = "history.series"
	spanAt        = "history.at"
	spanStack     = "diagnosis.stack"
	spanChain     = "diagnosis.chain"
	spanTopFlows  = "diagnosis.topflows"
)

// traceDiagReplay is the traced run: a slice of the real workload for the
// untraced CPU base, tail latency and verdicts, then the same query mix
// stepped in one goroutine with each diagnosis split into its history
// read (Store.Intervals) and its algorithm (Analyze*Intervals), and the
// appender's share of records appended between rounds.
func traceDiagReplay(o options, sz diagReplaySize, rec *recording, store *history.Store, qs []query, out *outcome) error {
	writer := &replayer{rec: rec}
	base := writer.runFor(store, qs, o.window(0.4), sz)
	base.judge(out)
	_, baseCPU := base.sl.medians()
	out.samples["diagnosis.diagnose_us"] = describe(base.diagnoseMS, "ms")
	out.set("diagnosis.diagnose_us_p99", base.diagnoseMS.sorted().quantile(0.99)*1e3)
	out.set("diagnosis.verdicts_correct_ratio", ratio(float64(base.checked-base.wrong), float64(base.checked)))

	heap0 := heapLiveMB()
	fresh := rec.fill() // sized alone, for bytes per point
	resident := fresh.Stats().Resident
	out.set("history.resident_points", float64(resident))
	out.set("history.bytes_per_point", ratio((heapLiveMB()-heap0)*1e6, float64(resident)))
	runtime.KeepAlive(fresh)

	appendsPerRound := int(ratio(float64(base.appended), float64(base.rounds)))
	appended, stepped := 0, 0
	step := newRecorder(spanAppend)
	for i, deadline := 0, time.Now().Add(o.window(0.5)); time.Now().Before(deadline); i++ {
		q := &qs[i%len(qs)]
		if q.kind == 0 {
			step.nextRound()
			step.time(spanAppend, func() { writer.appendTo(store, appendsPerRound) })
			appended += appendsPerRound
		}
		switch q.kind {
		case queryStack:
			id := step.begin(spanStack)
			ivs := steppedIntervals(step, store, q.stack.tid, sz.Window, q.asOf)
			for eid, iv := range ivs { // the element kinds Algorithm 1 ranks, as Store.DiagnoseStack keeps them
				k := iv.Cur.Kind()
				if !k.InVirtualizationStack() && k != core.KindUnknown && k != core.KindPNIC && k != core.KindMiddlebox {
					delete(ivs, eid)
				}
			}
			diagnosis.AnalyzeStackIntervals(ivs)
			step.end(id)
			stepped++
		case queryChain:
			id := step.begin(spanChain)
			ivs := steppedIntervals(step, store, q.chain.tid, sz.Window, q.asOf)
			for eid, iv := range ivs {
				if iv.Cur.Kind() != core.KindMiddlebox {
					delete(ivs, eid)
				}
			}
			diagnosis.AnalyzeChainIntervals(ivs, q.chain.net)
			step.end(id)
			stepped++
		case querySeries:
			id := step.begin(spanSeries)
			store.Series(q.stack.tid, q.stack.pnic, "rx_bytes", q.asOf-int64(time.Second), q.asOf, 0)
			step.end(id)
		case queryFlows:
			id := step.begin(spanTopFlows)
			at := step.begin(spanAt)
			r, _ := store.At(q.stack.tid, q.stack.vswitch, 0)
			step.end(at)
			diagnosis.TopFlows(r, 10)
			step.end(id)
		}
	}
	layers := layerMap(selfTimes(step.spans))
	out.layers = layers
	out.set("history.intervals_us_per_tenant", layers.nsPerCall(spanIntervals)/1e3)
	out.set("history.series_us_per_query", layers.nsPerCall(spanSeries)/1e3)
	out.set("diagnosis.stack_us_per_call", layers.nsPerCall(spanStack)/1e3)
	out.set("diagnosis.chain_us_per_call", layers.nsPerCall(spanChain)/1e3)
	out.set("diagnosis.topflows_us_per_call", layers.nsPerCall(spanTopFlows)/1e3)
	out.set("history.append_ns_per_record", layers.nsPer(spanAppend, appended))
	out.set("history.append_allocs_per_record", layers.allocsPer(spanAppend, appended))
	var all time.Duration
	for _, t := range layers {
		all += t.Self
	}
	out.set("transport.residual_us_per_update", baseCPU-ratio(us(all), float64(stepped)))
	return writeTrace(o.tracePath("diagnose-replay"), traceFile{Workload: "diagnose-replay", Seed: o.seed, Spans: step.spans})
}

// steppedIntervals is Store.Intervals under its own span.
func steppedIntervals(step *recorder, store *history.Store, tid core.TenantID, window time.Duration, asOf int64) map[core.ElementID]controller.Interval {
	id := step.begin(spanIntervals)
	ivs := store.Intervals(tid, nil, window, asOf)
	step.end(id)
	return ivs
}
