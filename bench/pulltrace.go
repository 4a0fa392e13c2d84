package main

import (
	"fmt"
	"runtime"
	"time"

	"perfsight/internal/agent"
	"perfsight/internal/anomaly"
	"perfsight/internal/controller"
	"perfsight/internal/core"
	"perfsight/internal/history"
	"perfsight/internal/procfs"
	"perfsight/internal/wire"
)

// Span names of the pull-sweep probes, outside the chain.
const (
	spanSampleLocal = "controller.sample_local"
	spanRender      = "_render" // after "procfs.<file>"
	spanParse       = "_parse"
)

// channels are the collection channels agent.Build wires, by the suffix
// their figures carry.
var channels = []string{"netdev", "softnet", "ovs", "qemulog", "mbox", "direct"}

// channelOf names the collection channel agent.Build gives an element of
// the kind: device files, the softnet file, the OVS control channel, the
// QEMU counter log, the middlebox stats socket, or the direct API.
func channelOf(k core.ElementKind) string {
	switch k {
	case core.KindPNIC, core.KindTUN, core.KindVNIC:
		return "netdev"
	case core.KindPCPUBacklog, core.KindVCPUBacklog:
		return "softnet"
	case core.KindVSwitch:
		return "ovs"
	case core.KindHypervisorIO:
		return "qemulog"
	case core.KindMiddlebox:
		return "mbox"
	}
	return "direct"
}

// procFiles are the host files the procfs probe renders and parses.
var procFiles = []struct {
	name, path string
	parse      func([]byte) error
}{
	{"procfs.netdev", "/proc/net/dev", func(b []byte) error { _, err := procfs.ParseNetDev(b); return err }},
	{"procfs.softnet", "/proc/net/softnet_stat", func(b []byte) error { _, err := procfs.ParseSoftnet(b); return err }},
}

// tracePullSweep is the traced run: a slice of the real workload for the
// untraced CPU base and the figures only the TCP path has, then the
// stepped pipeline under the recorder, then the layers the chain does not
// call by themselves, each probed alone on the loaded machine.
func tracePullSweep(o options, sz pullSweepSize, w *pullWorld, out *outcome) error {
	q0, busy0 := agentStats(w.agents)
	base := w.sweepFor(o.window(0.3), sz)
	q1, busy1 := agentStats(w.agents)
	out.attempted += int64(len(base.sweepMS))
	out.failed += int64(base.failed)
	_, baseCPU := base.sl.medians()
	out.samples["controller.sweep_ms"] = describe(base.sweepMS, "ms")
	out.set("controller.sweep_ms_p99", base.sweepMS.sorted().quantile(0.99))
	out.set("controller.retries", float64(w.reg.Counter("perfsight_controller_agent_retries_total", "").Value()))
	out.set("controller.breaker_skips", float64(w.reg.Counter("perfsight_controller_agents_skipped_total", "").Value()))
	out.set("wire.bytes_per_update", ratio(float64(base.rxBytes), float64(base.records)))
	out.set("agent.busy_us_per_query", ratio(us(busy1-busy0), float64(q1-q0)))
	_, events, _ := w.journal.Stats()
	out.set("anomaly.events", float64(events))
	out.set("anomaly.incidents_opened", float64(len(w.pipe.Incidents.List("", 0))))

	// The stepped pipeline: every layer's public function called in order
	// on the previous layer's output, in this goroutine, into a recorder-
	// side store and pipeline configured like the real ones. Sessions are
	// per machine, as codecs are per connection.
	heap0 := heapLiveMB()
	store := history.New(history.Config{})
	pipe := anomaly.NewPipeline(store, history.NewJournal(256), pullSLO())
	sessions := map[core.MachineID]session{}
	// Three rounds in four step the chain on a whole fetch; the fourth
	// fetches the same elements one at a time in the same order, each under
	// a span named by its collection channel. One at a time, not one
	// channel at a time: grouped by channel the same code runs back to back
	// and measures 14 % under the interleaved whole it is meant to split.
	type element struct {
		id   []core.ElementID // a one-element query, built once
		span string
	}
	inventory := map[core.MachineID][]element{}
	for _, mid := range w.mids {
		sessions[mid] = newSession()
		gather, err := w.agents[mid].Fetch(nil, nil, true)
		if err != nil {
			return fmt.Errorf("channel inventory %s: %w", mid, err)
		}
		for _, r := range gather {
			inventory[mid] = append(inventory[mid], element{[]core.ElementID{r.Element}, spanFetch + "." + channelOf(r.Kind())})
		}
	}
	rec := newRecorder(spanClusterRun, spanFetch, spanDecode, spanAppend)
	var c chain
	ticks := 0
	for deadline := time.Now().Add(o.window(0.6)); time.Now().Before(deadline); {
		rec.nextRound()
		round := rec.begin(spanRound)
		rec.time(spanClusterRun, func() { w.c.Run(sz.Step) })
		ticks += int(sz.Step / time.Millisecond)

		for _, mid := range w.mids {
			a := w.agents[mid]
			if rec.round%4 == 0 {
				for _, e := range inventory[mid] {
					id := rec.begin(e.span)
					_, err := a.Fetch(e.id, nil, false)
					rec.end(id)
					if err != nil {
						return fmt.Errorf("stepped fetch %s: %w", e.id[0], err)
					}
				}
				continue
			}
			recs, err := c.gather(rec, a, sessions[mid], &wire.Message{Type: wire.TypeResponse, ID: uint64(rec.round)})
			if err != nil {
				return err
			}
			tid := machineTenant(mid)
			rec.time(spanAppend, func() {
				for _, r := range recs {
					store.Append(tid, r)
				}
			})
			byID := make(map[core.ElementID]core.Record, len(recs)) // Sample's result shape; building it is the controller's, in the residual
			for _, r := range recs {
				byID[r.Element] = r
			}
			rec.time(spanAfterSweep, func() { pipe.AfterSweep(tid, byID, nil) })
		}
		rec.end(round)
	}
	resident := store.Stats().Resident
	out.set("history.resident_points", float64(resident))
	out.set("history.bytes_per_point", ratio((heapLiveMB()-heap0)*1e6, float64(resident)))
	runtime.KeepAlive(store)

	loaded := w.mids[0]
	if err := probeWireSizes(out, w.agents[loaded]); err != nil {
		return err
	}
	probe := o.window(0.1) / 4 // four probes share what is left of the run
	if err := probeProcfs(rec, w.fs[loaded], probe); err != nil {
		return err
	}
	if err := probeLocalSample(rec, w, probe); err != nil {
		return err
	}
	probeTraceComplete(rec, probe)

	layers := layerMap(selfTimes(rec.spans))
	c.report(out, layers, baseCPU)
	out.set("cluster.tick_ns_per_machine", layers.nsPer(spanClusterRun, ticks*len(w.mids)))
	out.set("cluster.allocs_per_tick", layers.allocsPer(spanClusterRun, ticks))
	for _, ch := range channels {
		out.set("agent.fetch_us_per_record."+ch, layers.nsPerCall(spanFetch+"."+ch)/1e3) // one call fetched one record
	}
	out.set("anomaly.aftersweep_ns_per_record", layers.nsPer(spanAfterSweep, c.records))
	for _, f := range procFiles {
		out.set(f.name+spanRender+"_ns", layers.nsPerCall(f.name+spanRender))
		out.set(f.name+spanParse+"_ns", layers.nsPerCall(f.name+spanParse))
	}
	out.set("controller.sample_us_per_sweep_local", layers.nsPerCall(spanSampleLocal)/1e3)
	return writeTrace(o.tracePath("pull-sweep"), traceFile{Workload: "pull-sweep", Seed: o.seed, Spans: rec.spans})
}

// agentStats sums Agent.Stats over the fleet: queries answered and time
// spent gathering, the quantity Figure 16 plots.
func agentStats(agents map[core.MachineID]*agent.Agent) (queries uint64, busy time.Duration) {
	for _, a := range agents {
		q, b := a.Stats()
		queries += q
		busy += b
	}
	return queries, busy
}

// probeProcfs renders and parses the machine's own host files, each for
// half of d: a render is the mounted generator (element snapshots plus
// procfs.Format*), a parse is procfs.Parse* on that output.
func probeProcfs(rec *recorder, fs *procfs.FS, d time.Duration) error {
	for _, f := range procFiles {
		for deadline := time.Now().Add(d / 2); time.Now().Before(deadline); {
			rec.nextRound()
			id := rec.begin(f.name + spanRender)
			data, err := fs.ReadFile(f.path)
			rec.end(id)
			if err != nil {
				return fmt.Errorf("probe procfs: %w", err)
			}
			id = rec.begin(f.name + spanParse)
			err = f.parse(data)
			rec.end(id)
			if err != nil {
				return fmt.Errorf("probe procfs %s: %w", f.path, err)
			}
		}
	}
	return nil
}

// probeLocalSample sweeps the fleet through controller.Sample over
// LocalClients: the controller's fan-out and breaker bookkeeping without
// TCP, one "sweep" being every tenant sampled once.
func probeLocalSample(rec *recorder, w *pullWorld, d time.Duration) error {
	ctl := controller.New(w.c.Topology())
	for _, mid := range w.mids {
		ctl.RegisterAgent(mid, &controller.LocalClient{A: w.agents[mid]})
	}
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		rec.nextRound()
		id := rec.begin(spanSampleLocal)
		for _, mid := range w.mids {
			tid := machineTenant(mid)
			if _, err := ctl.Sample(tid, ctl.TenantElements(tid, nil)); err != nil {
				return fmt.Errorf("probe local sample: %w", err)
			}
		}
		rec.end(id)
	}
	return nil
}
