package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"perfsight/internal/anomaly"
	"perfsight/internal/controller"
	"perfsight/internal/core"
	"perfsight/internal/history"
	"perfsight/internal/machine"
	"perfsight/internal/telemetry"
)

// pullSweepSize sizes the pull-sweep workload.
type pullSweepSize struct {
	Machines int           `json:"machines"`
	VMs      int           `json:"vms_per_machine"`
	Flows    int           `json:"flows_per_vm"`
	Step     time.Duration `json:"sim_step_ns"` // simulated time between sweeps
	Warmup   int           `json:"warmup_sweeps"`
	HogAfter int           `json:"hog_after_sweeps"` // timed sweeps before the memory hog starts
	HogFor   int           `json:"hog_for_sweeps"`
	Setups   int           `json:"setups"`
}

var pullSweepFull = pullSweepSize{Machines: 2, VMs: 8, Flows: 4, Step: 5 * time.Millisecond,
	Warmup: 200, HogAfter: 100, HogFor: 400, Setups: 5}

// pullWorld is the pull-sweep system under test: the lab's agents served
// on loopback TCP, and a controller sweeping them into the flight recorder
// with the anomaly pipeline attached — wired as perfsight-controller
// -monitor -telemetry wires them, with delta responses on.
type pullWorld struct {
	*lab
	served    []*served
	clients   []*controller.TCPClient
	reg       *telemetry.Registry
	ctl       *controller.Controller
	store     *history.Store
	journal   *history.Journal
	pipe      *anomaly.Pipeline
	mon       *history.Monitor
	delivered int // element records the sweeps delivered
}

// pullSLO is the tenant SLO at the workload's time scale: sweeps are 5 ms
// of simulated time apart, so windows are fractions of a second. One
// correlation window spans the run: everything the hog causes is one
// incident.
func pullSLO() anomaly.Config {
	return anomaly.Config{
		SLO: anomaly.SLOConfig{Default: anomaly.SLO{
			DropRatePPS:      1000,
			DisableBaselines: true,
			Window:           anomaly.Duration(500 * time.Millisecond),
			Cooldown:         anomaly.Duration(250 * time.Millisecond),
		}},
		Correlator: anomaly.CorrelatorConfig{Window: time.Hour, ResolveAfter: time.Second},
	}
}

func buildPullWorld(seed uint64, sz pullSweepSize, scratch string) (*pullWorld, error) {
	roles := make([]role, sz.Machines)
	for i := 1; i < len(roles); i++ {
		roles[i] = roleLight
	}
	l, err := buildLab(seed, roles, sz.VMs, sz.Flows, scratch)
	if err != nil {
		return nil, err
	}
	w := &pullWorld{lab: l, reg: telemetry.NewRegistry()}
	w.ctl = controller.New(l.c.Topology())
	tracer := w.ctl.EnableTelemetry(w.reg)
	spans := telemetry.NewSpanStore(w.reg, 256, 64, 64)
	tracer.AttachSpanStore(spans, 1, 0)
	for _, mid := range l.mids {
		s, err := serve(l.agents[mid])
		if err != nil {
			w.close()
			return nil, err
		}
		w.served = append(w.served, s)
		client := controller.NewTCPClient(s.addr()).EnableTelemetry(w.reg, tracer)
		client.Delta, client.Sketch, client.Spans = true, true, true
		w.clients = append(w.clients, client)
		w.ctl.RegisterAgent(mid, client)
	}
	w.store = history.New(history.Config{})
	w.journal = history.NewJournal(256)
	w.pipe = anomaly.NewPipeline(w.store, w.journal, pullSLO())
	w.pipe.Net = func(tid core.TenantID) *core.VirtualNet { return l.c.Topology().Tenants[tid] }
	w.pipe.TraceOf = w.ctl.LastTraceID
	w.pipe.Spans = spans
	w.mon = history.NewMonitor(w.ctl, w.store, history.MonitorConfig{})
	w.mon.AfterSweep = func(tid core.TenantID, recs map[core.ElementID]core.Record, err error) {
		w.delivered += len(recs)
		w.pipe.AfterSweep(tid, recs, err)
	}
	for i := 0; i < sz.Warmup; i++ {
		l.c.Run(sz.Step)
		if err := w.mon.Sweep(context.Background()); err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up sweep %d: %w", i, err)
		}
	}
	return w, nil
}

func (w *pullWorld) close() {
	for _, c := range w.clients {
		_ = c.Close() // the connection is being abandoned either way
	}
	for _, s := range w.served {
		s.close()
	}
	w.lab.close()
}

func (w *pullWorld) txBytes() int64 {
	var n int64
	for _, s := range w.served {
		n += s.txBytes.Load()
	}
	return n
}

// pullRun is what a closed loop of sweeps measured.
type pullRun struct {
	sl       slices  // around the Sweep calls only; one op per record delivered
	sweepMS  samples // one per sweep
	failed   int     // sweeps that returned an error
	records  int
	rxBytes  int64
	hogStart int64 // simulated ns; 0 = the hog never started
}

// sweepFor runs the closed loop for d of wall time in one goroutine:
// advance the simulation one step, then sweep. Timing, CPU and allocations
// are taken around the Sweep calls, so the simulation step is excluded.
func (w *pullWorld) sweepFor(d time.Duration, sz pullSweepSize) pullRun {
	var r pullRun
	m0 := w.c.Machine(w.mids[0])
	var hog *machine.Hog
	records0, bytes0 := w.delivered, w.txBytes()
	ctx := context.Background()
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		switch i {
		case sz.HogAfter:
			hog = m0.AddHog(memoryHog())
			r.hogStart = w.c.NowNS()
		case sz.HogAfter + sz.HogFor:
			m0.RemoveHog(hog)
		}
		w.c.Run(sz.Step)
		before := w.delivered
		r.sl.start()
		err := w.mon.Sweep(ctx)
		r.sweepMS = append(r.sweepMS, ms(r.sl.stop(float64(w.delivered-before))))
		if err != nil {
			r.failed++
		}
	}
	r.records, r.rxBytes = w.delivered-records0, w.txBytes()-bytes0
	return r
}

// checkIncident holds the run to its expected verdict: the hog must have
// produced exactly one incident, rooted at want.
func (w *pullWorld) checkIncident(out *outcome, r pullRun, want string) {
	out.attempted++
	incidents := w.pipe.Incidents.List("", 0)
	switch {
	case r.hogStart == 0:
		out.failed++
		out.fail("the run ended before the memory hog started")
	case len(incidents) != 1:
		out.failed++
		out.fail("want exactly one incident, got %d: %v", len(incidents), rootCauses(incidents))
	case incidents[0].RootCause != want:
		out.failed++
		out.fail("incident rooted at %q, want %q", incidents[0].RootCause, want)
	}
}

func rootCauses(incidents []anomaly.Incident) []string {
	out := make([]string, len(incidents))
	for i, in := range incidents {
		out[i] = in.RootCause
	}
	return out
}

const wantPullRoot = "resource:memory-bandwidth"

func runPullSweep(o options, sz pullSweepSize) (*outcome, error) {
	out := newOutcome(sz)
	w, setups, err := setUp(sz.Setups, func() (*pullWorld, error) { return buildPullWorld(o.seed, sz, o.outDir) }, (*pullWorld).close)
	if err != nil {
		return nil, err
	}
	defer w.close()

	if o.trace {
		return out, tracePullSweep(o, sz, w, out)
	}
	r := w.sweepFor(o.window(1), sz)
	out.attempted += int64(len(r.sweepMS))
	out.failed += int64(r.failed)
	if r.failed > 0 {
		out.fail("%d of %d sweeps returned an error", r.failed, len(r.sweepMS))
	}
	w.checkIncident(out, r, wantPullRoot)

	out.samples["op_ms_p50"] = describe(r.sweepMS, "ms")
	out.set("setup_s", setups.sorted().quantile(0.5))
	out.set("op_ms_p50", r.sweepMS.sorted().quantile(0.5))
	r.sl.report(out)
	out.set("heap_retained_mb", heapLiveMB())
	runtime.KeepAlive(w)
	return out, nil
}
