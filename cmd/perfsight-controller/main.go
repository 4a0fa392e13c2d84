// Command perfsight-controller connects to one or more perfsight-agents
// over TCP, discovers their elements, and either watches drop locations
// live, runs the Algorithm 1 contention/bottleneck diagnosis, or records
// continuous monitoring history (the flight recorder) and serves it over
// HTTP for after-the-fact diagnosis.
//
//	perfsight-controller -agents m0=localhost:7700 -diagnose -window 3s
//	perfsight-controller -agents m0=localhost:7700 -watch 1s
//	perfsight-controller -agents m0=localhost:7700 -monitor 2s -telemetry :9101
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"strings"
	"time"

	"perfsight/internal/anomaly"
	"perfsight/internal/controller"
	"perfsight/internal/core"
	"perfsight/internal/diagnosis"
	"perfsight/internal/history"
	"perfsight/internal/ingest"
	"perfsight/internal/operator"
	"perfsight/internal/telemetry"
	"perfsight/internal/wire"
)

func main() {
	agents := flag.String("agents", "m0=localhost:7700", "comma-separated machine=host:port agent addresses")
	watch := flag.Duration("watch", 0, "poll interval for live drop watching (0 = off)")
	diagnose := flag.Bool("diagnose", false, "run the contention/bottleneck diagnosis once")
	advise := flag.Bool("advise", false, "diagnose and print remediation advice")
	window := flag.Duration("window", 3*time.Second, "measurement window for diagnosis")
	telemetryAddr := flag.String("telemetry", "", "serve self-metrics (/metrics, /healthz) on this address, e.g. :9101 (empty = disabled)")
	def := controller.DefaultSweepConfig()
	sweepDeadline := flag.Duration("sweep-deadline", def.Deadline, "wall-clock budget for one full collection sweep; slow agents are abandoned past it (0 = unbounded)")
	sweepRetries := flag.Int("sweep-retries", def.Retries, "extra attempts per agent within a sweep after a transport failure")
	sweepBackoff := flag.Duration("sweep-backoff", def.BackoffBase, "first retry delay; doubles per retry with jitter")
	sweepBackoffMax := flag.Duration("sweep-backoff-max", def.BackoffMax, "cap on the grown retry delay (0 = uncapped)")
	breakerThreshold := flag.Int("breaker-threshold", def.BreakerThreshold, "consecutive failures that open an agent's breaker so sweeps skip it (0 = breaker off)")
	breakerCooldown := flag.Duration("breaker-cooldown", def.BreakerCooldown, "how long an open breaker waits before a single probe query")
	codec := flag.String("codec", wire.CodecV2, "wire codec to offer agents: v2 (binary, falls back to JSON per agent) or json (skip negotiation)")
	delta := flag.Bool("delta", false, "request delta-encoded sweep responses on v2 connections (changed attrs only)")
	sketch := flag.Bool("sketch", true, "request sketch flow summaries from agents that offer them (constant-size flow_sketch blob instead of per-rule attr enumeration); agents without the capability fall back to legacy")
	spans := flag.Bool("spans", true, "request agent-side trace spans on v2 connections (per-channel gather spans piggybacked on sweep responses and push frames); span-blind agents degrade silently")
	traceKeep := flag.Int("trace-keep", 256, "traces retained with full span forests in the span store (sampled/error/slow, plus incident-pinned)")
	traceSample := flag.Int("trace-sample", 1, "head sampling: retain every Nth trace's spans (1 = all); error and slow traces are kept regardless")
	traceSlow := flag.Duration("trace-slow", 0, "tail-keep traces slower than this end to end, independent of sampling (0 = off)")
	monitor := flag.Duration("monitor", 0, "flight recorder: sweep all elements at this cadence into the history store and keep serving (0 = off)")
	push := flag.Bool("push", true, "with -monitor: stream delta frames from push-capable agents on arrival, demoting the sweep loop to a fallback for pull-only or stream-down agents")
	cadenceMin := flag.Duration("cadence-min", 100*time.Millisecond, "fastest push cadence to request from streaming agents (they may enforce a slower floor)")
	cadenceMax := flag.Duration("cadence-max", 5*time.Second, "slowest push cadence streams decay to while counters are quiescent")
	ingestQueue := flag.Int("ingest-queue", 64, "bounded per-agent ingest queue (batches); overflow drops oldest and throttles the sender")
	histRetention := flag.Duration("history-retention", 15*time.Minute, "evict downsampled history older than this behind the newest sample")
	histMaxPoints := flag.Int("history-max-points", 512, "full-cadence points retained per (element, attr) series before step-down")
	histStep := flag.Duration("history-downsample", 10*time.Second, "step-down resolution: one retained point per step for aged history")
	eventsCap := flag.Int("events-cap", 256, "bounded diagnosis-event journal capacity (oldest overwritten)")
	anomalyOn := flag.Bool("anomaly", true, "run the always-on anomaly pipeline on monitor sweeps (per-series baselines, SLO triggers, incident correlation)")
	sloConfigPath := flag.String("slo-config", "", "JSON per-tenant SLO file ({\"default\": {...}, \"tenants\": {...}}); flag thresholds fill its unset fields")
	sloDropPPS := flag.Float64("slo-drop-pps", 50, "per-element drop rate (pkts/s between sweeps) that violates the SLO and triggers a diagnosis event")
	sloWindow := flag.Duration("slo-window", 3*time.Second, "history window a triggered diagnosis event analyzes")
	sloCooldown := flag.Duration("slo-cooldown", 30*time.Second, "minimum spacing between diagnosis triggers per tenant")
	ewmaBands := flag.Float64("ewma-bands", 6, "EWMA deviation-band multiplier for baseline detectors on non-drop series")
	incidentWindow := flag.Duration("incident-window", 5*time.Minute, "sliding window within which events with the same root cause and scope fold into one incident")
	incidentResolve := flag.Duration("incident-resolve-after", time.Minute, "quiet period after which an open incident resolves")
	pprofFlag := flag.Bool("pprof", false, "expose Go profiling endpoints (/debug/pprof/*) on the -telemetry address")
	flag.Parse()
	if *codec != wire.CodecV2 && *codec != wire.CodecJSON {
		log.Fatalf("bad -codec %q (want v2 or json)", *codec)
	}

	topo := core.NewTopology()
	ctl := controller.New(topo)
	ctl.Sweep = controller.SweepConfig{
		Deadline:         *sweepDeadline,
		Retries:          *sweepRetries,
		BackoffBase:      *sweepBackoff,
		BackoffMax:       *sweepBackoffMax,
		BreakerThreshold: *breakerThreshold,
		BreakerCooldown:  *breakerCooldown,
	}
	const tid = core.TenantID("operator")

	var reg *telemetry.Registry
	var tracer *telemetry.Tracer
	var spanStore *telemetry.SpanStore
	if *telemetryAddr != "" {
		reg = telemetry.NewRegistry()
		tracer = ctl.EnableTelemetry(reg)
		diagnosis.EnableTelemetry(reg)
		if *spans {
			spanStore = telemetry.NewSpanStore(reg, *traceKeep, 64, 64)
			tracer.AttachSpanStore(spanStore, *traceSample, *traceSlow)
		}
	}

	agentAddrs := make(map[core.MachineID]string)
	for _, spec := range strings.Split(*agents, ",") {
		name, addr, ok := strings.Cut(strings.TrimSpace(spec), "=")
		if !ok {
			log.Fatalf("bad -agents entry %q (want machine=host:port)", spec)
		}
		mid := core.MachineID(name)
		agentAddrs[mid] = addr
		client := controller.NewTCPClient(addr)
		client.Codec = *codec
		client.Delta = *delta
		client.Sketch = *sketch
		client.Spans = *spans
		if reg != nil {
			client.EnableTelemetry(reg, tracer)
		}
		if d, err := client.Ping(); err != nil {
			log.Fatalf("agent %s at %s unreachable: %v", name, addr, err)
		} else {
			log.Printf("agent %s at %s (rtt %v, codec %s)", name, addr, d, client.NegotiatedCodec())
		}
		metas, err := client.ListElements()
		if err != nil {
			log.Fatalf("list elements from %s: %v", name, err)
		}
		net := topo.Net(tid)
		for _, meta := range metas {
			net.Add(meta.ID, core.ElementInfo{Machine: mid, Kind: meta.Kind})
		}
		ctl.RegisterAgent(mid, client)
		log.Printf("  %d elements discovered", len(metas))
	}

	// Flight recorder: continuous monitoring history plus the anomaly
	// pipeline that turns sweeps into evidence-bearing diagnosis events
	// and correlated incidents.
	var (
		store   *history.Store
		journal *history.Journal
		mon     *history.Monitor
		pipe    *anomaly.Pipeline
	)
	netOf := func(t core.TenantID) *core.VirtualNet { return topo.Tenants[t] }
	if *monitor > 0 {
		store = history.New(history.Config{
			Retention:          *histRetention,
			MaxPointsPerSeries: *histMaxPoints,
			DownsampleStep:     *histStep,
		})
		journal = history.NewJournal(*eventsCap)
		mon = history.NewMonitor(ctl, store, history.MonitorConfig{Interval: *monitor})
		if *anomalyOn {
			sloCfg := anomaly.SLOConfig{}
			if *sloConfigPath != "" {
				var err error
				sloCfg, err = anomaly.LoadSLOConfig(*sloConfigPath)
				if err != nil {
					log.Fatalf("%v", err)
				}
			}
			sloCfg = sloCfg.WithBase(anomaly.SLO{
				DropRatePPS: *sloDropPPS,
				Bands:       *ewmaBands,
				Window:      anomaly.Duration(*sloWindow),
				Cooldown:    anomaly.Duration(*sloCooldown),
			})
			pipe = anomaly.NewPipeline(store, journal, anomaly.Config{
				SLO: sloCfg,
				Correlator: anomaly.CorrelatorConfig{
					Window:       *incidentWindow,
					ResolveAfter: *incidentResolve,
				},
			})
			pipe.Net = netOf
			// Incidents reference the traces whose records triggered them
			// and pin those traces in the span store so the evidence
			// outlives the transient retention window.
			pipe.Spans = spanStore
			pipe.TraceOf = ctl.LastTraceID
			mon.AfterSweep = pipe.AfterSweep
		}
		if reg != nil {
			store.EnableTelemetry(reg)
			journal.EnableTelemetry(reg)
			mon.EnableTelemetry(reg)
			if pipe != nil {
				pipe.EnableTelemetry(reg)
			}
		}
	}

	// Push ingest: stream delta frames from push-capable agents straight
	// into the store (and through the anomaly pipeline) on arrival. The
	// monitor keeps sweeping as a fallback, skipping machines with a live
	// stream; pull-only agents and dropped streams stay covered.
	var ingestMgr *ingest.Manager
	if *push && mon != nil {
		ingestMgr = ingest.NewManager(ingest.Config{
			CadenceMin: *cadenceMin,
			CadenceMax: *cadenceMax,
			QueueSize:  *ingestQueue,
			Codec:      *codec,
			Delta:      *delta,
			Sketch:     *sketch,
			Spans:      *spans,
			Tracer:     tracer,
			Sink: func(_ core.MachineID, recs []core.Record, traceID uint64) {
				for _, r := range recs {
					store.Append(tid, r)
				}
				if pipe != nil {
					pipe.ObserveTraced(tid, recs, traceID)
				}
			},
		})
		for mid, addr := range agentAddrs {
			ingestMgr.Add(mid, addr)
		}
		mon.Skip = ingestMgr.Streaming
		if reg != nil {
			ingestMgr.EnableTelemetry(reg)
		}
		go func() { _ = ingestMgr.Run(context.Background()) }()
		log.Printf("push ingest: streaming %d agents (cadence %v..%v, queue %d); sweep loop demoted to fallback",
			len(agentAddrs), *cadenceMin, *cadenceMax, *ingestQueue)
	} else if *push && mon == nil {
		log.Printf("-push ignored: push ingest needs -monitor for the history store")
	}

	if reg != nil {
		started := time.Now()
		mux := telemetry.NewMux(reg, func() telemetry.Health {
			h := telemetry.Health{
				Component: "controller",
				Identity:  "controller",
				Elements:  len(ctl.TenantElements(tid, nil)),
				UptimeSec: time.Since(started).Seconds(),
				// Schema-registry pressure: decoding legacy exact flow
				// records registers one ext attr per rule name, so a big
				// tenant mix can exhaust the 16,384-name cap. Rejections
				// used to be silent; now they are countable here.
				Extra: map[string]float64{
					"schema_ext_attrs":    float64(core.ExtAttrCount()),
					"schema_ext_rejected": float64(core.ExtRejected()),
				},
			}
			if store != nil {
				st := store.Stats()
				h.Extra["history_series"] = float64(st.Series)
				h.Extra["history_resident_points"] = float64(st.Resident)
				h.Extra["history_evicted_points"] = float64(st.Evicted)
				if journal != nil {
					n, seq, dropped := journal.Stats()
					h.Extra["journal_events"] = float64(n)
					h.Extra["journal_last_seq"] = float64(seq)
					h.Extra["journal_dropped"] = float64(dropped)
				}
				if pipe != nil {
					h.Extra["incidents_open"] = float64(pipe.Incidents.OpenCount())
				}
			}
			if ingestMgr != nil {
				var streaming, dropped, gaps, queued float64
				for _, sh := range ingestMgr.Health() {
					if sh.State == ingest.StateStreaming {
						streaming++
					}
					dropped += float64(sh.Dropped)
					gaps += float64(sh.Gaps)
					queued += float64(sh.QueueLen)
				}
				h.Extra["ingest_streams_active"] = streaming
				h.Extra["ingest_batches_dropped"] = dropped
				h.Extra["ingest_seq_gaps"] = gaps
				h.Extra["ingest_queue_depth"] = queued
			}
			return h
		})
		if store != nil {
			hs := &history.Server{Store: store, Journal: journal, Net: netOf, DefaultTenant: tid}
			hs.Register(mux)
		}
		if spanStore != nil {
			ts := &telemetry.TraceServer{Tracer: tracer, Store: spanStore}
			ts.Register(mux)
		}
		if pipe != nil {
			as := &anomaly.Server{Pipeline: pipe, Journal: journal}
			as.Register(mux)
		}
		if *pprofFlag {
			telemetry.RegisterPprof(mux)
		}
		taddr, err := telemetry.ServeHandler(*telemetryAddr, mux)
		if err != nil {
			log.Fatalf("telemetry: %v", err)
		}
		log.Printf("telemetry on http://%s/metrics", taddr)
	} else if *pprofFlag {
		log.Printf("-pprof ignored: set -telemetry to expose /debug/pprof")
	}

	switch {
	case mon != nil:
		if reg == nil {
			log.Printf("note: -monitor without -telemetry records history but serves no /history, /events or /diagnose endpoints")
		}
		log.Printf("flight recorder: sweeping every %v (retention %v, %d raw points/series, step %v)",
			*monitor, *histRetention, *histMaxPoints, *histStep)
		if err := mon.Run(context.Background()); err != nil && err != context.Canceled {
			log.Fatalf("monitor: %v", err)
		}

	case *advise:
		tk, err := operator.Diagnose(ctl, tid, *window)
		if err != nil {
			log.Fatalf("advise: %v", err)
		}
		if tk.Stack != nil {
			fmt.Println("stack: ", tk.Stack)
		}
		if tk.Chain != nil {
			fmt.Println("chains:", tk.Chain)
		}
		for _, r := range operator.Advise(tk) {
			fmt.Println("  ", r)
		}

	case *diagnose:
		rep, err := diagnosis.FindContentionAndBottleneck(ctl, tid, *window)
		if err != nil {
			log.Fatalf("diagnose: %v", err)
		}
		fmt.Println(rep)
		fmt.Printf("evidence: cpu %.0f%%, membus %.0f%%, pNIC rx %.0f Mbps / tx %.0f Mbps\n",
			rep.Evidence.CPUUtil*100, rep.Evidence.MembusUtil*100,
			rep.Evidence.PNICRxBps/1e6, rep.Evidence.PNICTxBps/1e6)
		for i, e := range rep.Ranked {
			if i >= 5 || e.Loss == 0 {
				break
			}
			fmt.Printf("  #%d %-30s %8.0f pkts lost\n", i+1, e.Element, e.Loss)
		}

	case *watch > 0:
		watchDrops(ctl, tid, *watch)

	default:
		// One-shot inventory dump.
		ids := ctl.TenantElements(tid, nil)
		recs, err := ctl.Sample(tid, ids)
		if err != nil {
			log.Printf("partial sample: %v", err)
		}
		sorted := make([]core.ElementID, 0, len(recs))
		for id := range recs {
			sorted = append(sorted, id)
		}
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, id := range sorted {
			rec := recs[id]
			fmt.Printf("%-32s rx %12.0f B  tx %12.0f B  drops %8.0f\n", id,
				rec.GetOr(core.AttrRxBytes, 0), rec.GetOr(core.AttrTxBytes, 0),
				rec.GetOr(core.AttrDropPackets, 0))
		}
	}
	os.Exit(0)
}

// watchDrops polls all elements and prints per-interval drop deltas.
func watchDrops(ctl *controller.Controller, tid core.TenantID, interval time.Duration) {
	ids := ctl.TenantElements(tid, nil)
	prev, err := ctl.Sample(tid, ids)
	if err != nil {
		log.Printf("partial sample: %v", err)
	}
	for {
		time.Sleep(interval)
		cur, err := ctl.Sample(tid, ids)
		if err != nil {
			log.Printf("partial sample: %v", err)
		}
		type row struct {
			id   core.ElementID
			loss float64
		}
		var rows []row
		for id, c := range cur {
			p, ok := prev[id]
			if !ok {
				continue
			}
			iv := controller.Interval{Prev: p, Cur: c}
			if loss := iv.DropPackets(); loss > 0 {
				rows = append(rows, row{id, loss})
			}
		}
		sort.Slice(rows, func(i, j int) bool { return rows[i].loss > rows[j].loss })
		if len(rows) == 0 {
			fmt.Printf("%s  no drops\n", time.Now().Format("15:04:05"))
		} else {
			fmt.Printf("%s  drops:", time.Now().Format("15:04:05"))
			for i, r := range rows {
				if i >= 4 {
					break
				}
				fmt.Printf("  %s=%0.f", r.id, r.loss)
			}
			fmt.Println()
		}
		prev = cur
	}
}
