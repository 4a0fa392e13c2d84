package experiments

// End-to-end lab for the distributed trace spine: one pull sweep and one
// push frame travel from a TCP agent into the controller's tracer, an
// anomaly incident references the traces that carried its triggering
// records, and the referenced traces render as skew-corrected waterfalls
// with both controller-side stages and agent-side per-channel spans —
// over the /traces HTTP surface and the renderer the `perfsight trace`
// subcommand uses.

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"perfsight/internal/agent"
	"perfsight/internal/anomaly"
	"perfsight/internal/controller"
	"perfsight/internal/core"
	"perfsight/internal/history"
	"perfsight/internal/ingest"
	"perfsight/internal/telemetry"
)

// traceElem is a mutable element: the test advances its counters and
// spikes its drops to simulate a contended machine on demand.
type traceElem struct {
	id core.ElementID

	mu        sync.Mutex
	rx, drops float64
}

func (e *traceElem) ID() core.ElementID     { return e.id }
func (e *traceElem) Kind() core.ElementKind { return core.KindPNIC }
func (e *traceElem) Snapshot(ts int64) core.Record {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rx += 1000
	return core.Record{Timestamp: ts, Element: e.id, Attrs: []core.Attr{
		{ID: core.AttrRxBytes, Value: e.rx},
		{ID: core.AttrDropPackets, Value: e.drops},
	}}
}

func (e *traceElem) spike(drops float64) {
	e.mu.Lock()
	e.drops += drops
	e.mu.Unlock()
}

func waitTrace(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestTraceSpineEndToEnd(t *testing.T) {
	const tid = core.TenantID("t1")
	testStart := time.Now().UnixNano()

	// A real TCP agent on a wall clock, granting spans, delta and push.
	elem := &traceElem{id: "m0/pnic"}
	a := agent.New("m0", func() int64 { return time.Now().UnixNano() })
	a.AllowStream = true
	a.AllowDelta = true
	a.AllowSpans = true
	a.CadenceMin = 10 * time.Millisecond
	a.CadenceMax = 50 * time.Millisecond
	a.Register(&agent.DirectAdapter{E: elem})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go a.Serve(ln)

	// Controller with the full trace spine: shared tracer, span store
	// with head sampling, instrumented TCP client requesting spans.
	topo := core.NewTopology()
	topo.Net(tid).Add(elem.id, core.ElementInfo{Machine: "m0", Kind: core.KindPNIC})
	ctl := controller.New(topo)
	reg := telemetry.NewRegistry()
	tracer := ctl.EnableTelemetry(reg)
	spanStore := telemetry.NewSpanStore(reg, 64, 16, 16)
	tracer.AttachSpanStore(spanStore, 1, 0)
	cl := controller.NewTCPClient(ln.Addr().String())
	cl.Timeout = 2 * time.Second
	cl.Delta = true
	cl.Spans = true
	cl.EnableTelemetry(reg, tracer)
	t.Cleanup(func() { cl.Close() })
	ctl.RegisterAgent("m0", cl)

	// Anomaly pipeline linked to the spine: incidents resolve the trace
	// of the pull sweep via TraceOf and pin referenced traces.
	store := history.New(history.Config{})
	journal := history.NewJournal(64)
	pipe := anomaly.NewPipeline(store, journal, anomaly.Config{
		SLO: anomaly.SLOConfig{Default: anomaly.SLO{
			DropRatePPS:      100,
			Window:           anomaly.Duration(time.Second),
			Cooldown:         anomaly.Duration(10 * time.Millisecond),
			DisableBaselines: true,
		}},
	})
	pipe.Spans = spanStore
	pipe.TraceOf = ctl.LastTraceID

	sweep := func() []core.Record {
		t.Helper()
		recs, err := ctl.Sample(tid, []core.ElementID{elem.id})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]core.Record, 0, len(recs))
		for _, r := range recs {
			store.Append(tid, r)
			out = append(out, r)
		}
		pipe.Observe(tid, out)
		return out
	}

	// ---- Pull path: healthy sweeps seed the rate detector, then a drop
	// spike under contention fires it.
	sweep()
	time.Sleep(20 * time.Millisecond)
	sweep()
	time.Sleep(20 * time.Millisecond)
	elem.spike(1e9)
	sweep()
	sweepTrace := ctl.LastTraceID(elem.id)
	if sweepTrace == 0 {
		t.Fatal("no trace recorded for the sweep")
	}

	events := journal.Since(0, 0)
	if len(events) == 0 {
		t.Fatal("drop spike produced no diagnosis event")
	}
	ev := events[0]
	if ev.TraceID != sweepTrace {
		t.Fatalf("event trace = %d, want the sweep's trace %d", ev.TraceID, sweepTrace)
	}
	in, ok := pipe.Incidents.Get(ev.IncidentID)
	if !ok {
		t.Fatalf("incident %d missing", ev.IncidentID)
	}
	if len(in.TraceIDs) != 1 || in.TraceIDs[0] != sweepTrace {
		t.Fatalf("incident traces = %v, want [%d]", in.TraceIDs, sweepTrace)
	}

	// The referenced trace was pinned as incident evidence and its
	// waterfall interleaves controller stages with the agent's
	// skew-corrected per-channel spans.
	tr, ok := spanStore.Get(sweepTrace)
	if !ok {
		t.Fatalf("span store lost the incident's trace %d", sweepTrace)
	}
	if tr.Keep != telemetry.KeepIncident {
		t.Fatalf("incident trace keep = %q, want %q", tr.Keep, telemetry.KeepIncident)
	}
	assertWaterfall(t, &tr, "agent:dispatch", testStart)

	// ---- Push path: the stream's frames carry spans too; the incident
	// accumulates the push frame's trace as further evidence.
	mgr := ingest.NewManager(ingest.Config{
		CadenceMin:  10 * time.Millisecond,
		CadenceMax:  50 * time.Millisecond,
		DialTimeout: 2 * time.Second,
		Redial:      10 * time.Millisecond,
		Delta:       true,
		Spans:       true,
		Tracer:      tracer,
		Sink: func(_ core.MachineID, recs []core.Record, traceID uint64) {
			for _, r := range recs {
				store.Append(tid, r)
			}
			pipe.ObserveTraced(tid, recs, traceID)
		},
	})
	mgr.Add("m0", ln.Addr().String())
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); mgr.Run(ctx) }()
	t.Cleanup(func() { cancel(); <-done })

	waitTrace(t, 10*time.Second, "push stream established", func() bool { return mgr.Streaming("m0") })
	time.Sleep(50 * time.Millisecond) // healthy stream samples
	elem.spike(1e9)
	waitTrace(t, 10*time.Second, "push-frame trace on the incident", func() bool {
		in, ok = pipe.Incidents.Get(ev.IncidentID)
		return ok && len(in.TraceIDs) >= 2
	})
	pushTrace := in.TraceIDs[len(in.TraceIDs)-1]
	ptr, ok := spanStore.Get(pushTrace)
	if !ok {
		t.Fatalf("span store lost the push frame's trace %d", pushTrace)
	}
	assertWaterfall(t, &ptr, "agent:push", testStart)

	// ---- The operator surfaces: /traces/{id} JSON and rendered, and the
	// waterfall renderer the `perfsight trace` subcommand runs locally.
	ts := &telemetry.TraceServer{Tracer: tracer, Store: spanStore}
	mux := http.NewServeMux()
	ts.Register(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	resp, err := http.Get(fmt.Sprintf("%s/traces/%d", srv.URL, sweepTrace))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /traces/%d: %s", sweepTrace, resp.Status)
	}
	var got telemetry.StoredTrace
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.ID != sweepTrace || len(got.Spans) != len(tr.Spans) {
		t.Fatalf("HTTP trace = id %d with %d spans, want id %d with %d", got.ID, len(got.Spans), sweepTrace, len(tr.Spans))
	}
	rendered, err := http.Get(fmt.Sprintf("%s/traces/%d?render=1", srv.URL, sweepTrace))
	if err != nil {
		t.Fatal(err)
	}
	defer rendered.Body.Close()
	buf := make([]byte, 1<<16)
	n, _ := rendered.Body.Read(buf)
	if !strings.Contains(string(buf[:n]), "agent/") {
		t.Fatalf("rendered waterfall lacks agent rows:\n%s", buf[:n])
	}

	list, err := http.Get(srv.URL + "/traces")
	if err != nil {
		t.Fatal(err)
	}
	defer list.Body.Close()
	var tl telemetry.TraceList
	if err := json.NewDecoder(list.Body).Decode(&tl); err != nil {
		t.Fatal(err)
	}
	if len(tl.Recent) == 0 || len(tl.Kept) == 0 {
		t.Fatalf("/traces listing empty: recent=%d kept=%d", len(tl.Recent), len(tl.Kept))
	}
}

// assertWaterfall checks one stored trace's forest: a controller-side
// stage span, the named agent root plus a per-channel child beneath it,
// and every agent span skew-corrected onto the controller timeline
// (inside the test's own wall-clock window).
func assertWaterfall(t *testing.T, tr *telemetry.StoredTrace, agentRoot string, testStart int64) {
	t.Helper()
	var sawController, sawRoot bool
	channels := 0 // the agent's one element sits on one channel: one child
	now := time.Now().UnixNano()
	for _, sp := range tr.Spans {
		switch {
		case sp.Component != "agent":
			sawController = true
		case sp.Name == agentRoot:
			sawRoot = true
		case sp.Name == "snapshot:encode":
			channels++
		default:
			t.Fatalf("unexpected agent span %q: %+v", sp.Name, tr.Spans)
		}
		if sp.Component == "agent" && (sp.Start < testStart-int64(time.Minute) || sp.End() > now) {
			t.Fatalf("agent span %q off the controller timeline: start=%d end=%d now=%d",
				sp.Name, sp.Start, sp.End(), now)
		}
	}
	if !sawController || !sawRoot || channels != 1 {
		t.Fatalf("waterfall incomplete (controller=%v root(%s)=%v channel spans=%d): %+v",
			sawController, agentRoot, sawRoot, channels, tr.Spans)
	}
	out := telemetry.RenderWaterfall(tr, 0)
	if !strings.Contains(out, "agent/"+agentRoot) || !strings.Contains(out, "agent/snapshot:encode") {
		t.Fatalf("rendered waterfall missing rows:\n%s", out)
	}
}
