package main

import (
	"fmt"
	"time"

	"perfsight/internal/agent"
	"perfsight/internal/core"
	"perfsight/internal/telemetry"
	"perfsight/internal/wire"
)

// Span names of the stepped collection chain. Their self times, per
// record, are the layer figures that add up (with the residual) to the
// untraced cpu_us_per_op.
const (
	spanRound      = "round"
	spanClusterRun = "cluster.run"
	spanFetch      = "agent.fetch"
	spanEncode     = "wire.v2_encode"
	spanDecode     = "wire.v2_decode"
	spanQueue      = "ingest.queue"
	spanAppend     = "history.append"
	spanAfterSweep = "anomaly.aftersweep"
	spanObserve    = "anomaly.observe"
	spanTrace      = "telemetry.trace_complete"
)

// chainLayers are the spans that make up one delivered record's cost.
var chainLayers = []string{spanFetch, spanEncode, spanDecode, spanQueue, spanAppend, spanAfterSweep, spanObserve}

// layerMap is a trace reduced to per-name totals.
type layerMap map[string]layerTotals

// nsPer is a layer's self time per n units of work, in ns.
func (l layerMap) nsPer(name string, n int) float64 { return ratio(float64(l[name].Self), float64(n)) }

// nsPerCall is a layer's self time per call, in ns.
func (l layerMap) nsPerCall(name string) float64 { return l.nsPer(name, l[name].Calls) }

// allocsPer is a layer's own allocations per n units of work.
func (l layerMap) allocsPer(name string, n int) float64 {
	return ratio(float64(l[name].Allocs), float64(n))
}

// session is one agent's stepped wire session: an encoder and a decoder
// with delta on, as the two ends of a connection hold.
type session struct{ enc, dec *wire.V2Codec }

func newSession() session { return session{wire.NewV2Codec(true), wire.NewV2Codec(true)} }

// chain counts what the stepped collection chain moved.
type chain struct {
	records, frames, wireBytes int
}

// gather steps one agent's elements through Fetch, Encode and Decode under
// the recorder, and returns the records as the controller's end decoded
// them. msg is the frame to fill: a query response or a stream_data push.
func (c *chain) gather(rec *recorder, a *agent.Agent, s session, msg *wire.Message) ([]core.Record, error) {
	id := rec.begin(spanFetch)
	recs, err := a.Fetch(nil, nil, true)
	rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("stepped fetch %s: %w", a.Machine(), err)
	}
	msg.Machine, msg.Records = a.Machine(), recs

	id = rec.begin(spanEncode)
	payload, err := s.enc.Encode(msg)
	rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("stepped encode %s: %w", a.Machine(), err)
	}

	id = rec.begin(spanDecode)
	got, err := s.dec.Decode(payload)
	rec.end(id)
	if err != nil {
		return nil, fmt.Errorf("stepped decode %s: %w", a.Machine(), err)
	}
	c.records += len(got.Records)
	c.frames++
	c.wireBytes += len(payload)
	return got.Records, nil
}

// report sets the figures every stepped collection chain has. baseCPU is
// the untraced run's cpu_us_per_op, which the chain's self times are taken
// from to leave the residual.
func (c *chain) report(out *outcome, layers layerMap, baseCPU float64) {
	out.layers = layers
	out.set("agent.fetch_us_per_record", layers.nsPer(spanFetch, c.records)/1e3)
	out.set("agent.fetch_allocs_per_record", layers.allocsPer(spanFetch, c.records))
	out.set("agent.records_per_fetch", ratio(float64(c.records), float64(c.frames)))
	out.set("wire.v2_encode_ns_per_record", layers.nsPer(spanEncode, c.records))
	out.set("wire.v2_decode_ns_per_record", layers.nsPer(spanDecode, c.records))
	out.set("wire.v2_decode_allocs_per_frame", layers.allocsPer(spanDecode, c.frames))
	out.set("wire.v2_bytes_per_record_delta", ratio(float64(c.wireBytes), float64(c.records)))
	out.set("history.append_ns_per_record", layers.nsPer(spanAppend, c.records))
	out.set("history.append_allocs_per_record", layers.allocsPer(spanAppend, c.records))
	out.set("telemetry.trace_complete_ns", layers.nsPer(spanTrace, layers[spanTrace].Calls*traceBatch))
	var sum time.Duration
	for _, name := range chainLayers {
		sum += layers[name].Self
	}
	out.set("transport.residual_us_per_update", baseCPU-ratio(us(sum), float64(c.records)))
}

// probeWireSizes encodes one agent's full gather three ways: v2 without
// delta on a warmed session (intern tables filled), JSON, and the size of
// the vswitch's flow-sketch blob alone.
func probeWireSizes(out *outcome, a *agent.Agent) error {
	recs, err := a.Fetch(nil, nil, true)
	if err != nil || len(recs) == 0 {
		return fmt.Errorf("probe gather %s: %d records, %w", a.Machine(), len(recs), err)
	}
	msg := &wire.Message{Type: wire.TypeResponse, ID: 1, Records: recs}
	full := wire.NewV2Codec(false)
	if _, err = full.Encode(msg); err != nil {
		return fmt.Errorf("probe wire sizes: %w", err)
	}
	warm, err := full.Encode(msg)
	if err != nil {
		return fmt.Errorf("probe wire sizes: %w", err)
	}
	asJSON, err := wire.Encode(msg)
	if err != nil {
		return fmt.Errorf("probe wire sizes: %w", err)
	}
	out.set("wire.v2_bytes_per_record_full", float64(len(warm))/float64(len(recs)))
	out.set("wire.json_bytes_per_record", float64(len(asJSON))/float64(len(recs)))
	for _, r := range recs {
		if a, ok := r.GetAttr(core.SketchAttrID()); ok {
			out.set("wire.sketch_blob_bytes", float64(len(a.Payload)))
		}
	}
	return nil
}

// traceBatch is how many traces one telemetry.trace_complete span covers:
// a trace completes in well under a clock read's noise.
const traceBatch = 64

// probeTraceComplete records query traces from Begin to End with the span
// store attached, each recording the four stages a round trip records.
func probeTraceComplete(rec *recorder, d time.Duration) {
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(reg, "bench", 64)
	tracer.AttachSpanStore(telemetry.NewSpanStore(reg, 256, 64, 64), 1, 0)
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		rec.nextRound()
		id := rec.begin(spanTrace)
		for i := 0; i < traceBatch; i++ {
			qt := tracer.Begin("probe")
			qt.Record(telemetry.StageEncode, time.Microsecond)
			qt.Record(telemetry.StageGather, time.Microsecond)
			qt.Record(telemetry.StageTransport, time.Microsecond)
			qt.Record(telemetry.StageDecode, time.Microsecond)
			qt.End()
		}
		rec.end(id)
	}
}
