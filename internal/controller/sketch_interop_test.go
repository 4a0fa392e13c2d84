package controller

// Mixed-version interop for sketch flow statistics: the hello Sketch bit
// decides per connection whether the vswitch record carries the
// constant-size flow_sketch summary or the legacy per-rule enumeration,
// so a new agent keeps serving old controllers and vice versa.

import (
	"net"
	"strings"
	"testing"
	"time"

	"perfsight/internal/agent"
	"perfsight/internal/core"
	"perfsight/internal/dataplane"
	"perfsight/internal/machine"
	"perfsight/internal/middlebox"
	"perfsight/internal/wire"
)

// sketchAgentSetup serves a sketch-mode agent (a real machine with
// traffic on flow f1) over TCP and returns a registered controller.
func sketchAgentSetup(t *testing.T, mutate func(c *TCPClient)) (*Controller, *TCPClient) {
	t.Helper()
	m := machine.New(machine.DefaultConfig("m0"))
	sink := middlebox.NewSink("m0/vm0/app", 1e9)
	m.AddVM("vm0", 1.0, 1e9, sink)
	m.Stack.VSwitch.InstallToVM("f1", "vm0")
	a, err := agent.Build(m, agent.BuildOptions{
		QEMULogDir: t.TempDir(),
		FlowStats:  agent.FlowStatsSketch,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	// Traffic flows after Build so the sketch (enabled there) sees it.
	m.OfferWire([]dataplane.Batch{{Flow: "f1", Packets: 100, Bytes: 100 * 1448}}, time.Millisecond)
	for i := 0; i < 50; i++ {
		m.Tick(time.Duration(i+1)*time.Millisecond, time.Millisecond)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go a.Serve(ln)

	c := NewTCPClient(ln.Addr().String())
	c.Timeout = 2 * time.Second
	if mutate != nil {
		mutate(c)
	}
	t.Cleanup(func() { c.Close() })

	topo := core.NewTopology()
	topo.Net("t1").Add("m0/vswitch", core.ElementInfo{Machine: "m0", Kind: core.KindVSwitch})
	ctl := New(topo)
	ctl.RegisterAgent("m0", c)
	return ctl, c
}

func sampleVSwitch(t *testing.T, ctl *Controller) core.Record {
	t.Helper()
	recs, err := ctl.Sample("t1", []core.ElementID{"m0/vswitch"})
	if err != nil {
		t.Fatal(err)
	}
	rec, ok := recs["m0/vswitch"]
	if !ok {
		t.Fatalf("no vswitch record: %+v", recs)
	}
	return rec
}

func hasRuleAttrs(rec core.Record) bool {
	for _, a := range rec.Attrs {
		if strings.HasPrefix(core.AttrName(a.ID), "rule_") {
			return true
		}
	}
	return false
}

// A sketch-requesting controller against a sketch-mode agent gets the
// flow_sketch summary — a decodable blob whose top-k carries the flow
// exactly — and no per-flow rule_* extension attrs at all.
func TestInteropSketchNegotiated(t *testing.T) {
	ctl, c := sketchAgentSetup(t, func(c *TCPClient) { c.Sketch = true })
	rec := sampleVSwitch(t, ctl)
	if got := c.NegotiatedCodec(); got != wire.CodecV2 {
		t.Fatalf("negotiated %q; want %q", got, wire.CodecV2)
	}
	a, ok := rec.GetAttr(core.SketchAttrID())
	if !ok || len(a.Payload) == 0 {
		t.Fatalf("no flow_sketch payload in sketch-negotiated record: %+v", rec.Attrs)
	}
	sum, err := dataplane.DecodeSketch(a.Payload)
	if err != nil {
		t.Fatal(err)
	}
	if a.Value != float64(sum.Epoch) {
		t.Fatalf("attr value %v is not the blob epoch %d", a.Value, sum.Epoch)
	}
	var f1 *dataplane.TopFlow
	for i := range sum.Top {
		if sum.Top[i].Flow == "f1" {
			f1 = &sum.Top[i]
		}
	}
	if f1 == nil || !f1.Exact() || f1.Pkts == 0 {
		t.Fatalf("flow f1 not exactly tracked: %+v", sum.Top)
	}
	if hasRuleAttrs(rec) {
		t.Fatalf("sketch-negotiated record still enumerates rule_* attrs: %+v", rec.Attrs)
	}
}

// The same agent serving a controller that never requested the sketch
// capability (an old build) falls back to the legacy per-rule
// enumeration, byte-compatible with pre-sketch agents.
func TestInteropSketchAgentLegacyV2Controller(t *testing.T) {
	ctl, _ := sketchAgentSetup(t, nil) // v2, Sketch not requested
	rec := sampleVSwitch(t, ctl)
	if v := rec.GetOr(core.AttrIDFor("rule_f1_packets"), 0); v == 0 {
		t.Fatalf("legacy controller lost per-rule counters: %+v", rec.Attrs)
	}
	if a, ok := rec.GetAttr(core.SketchAttrID()); ok && len(a.Payload) > 0 {
		t.Fatalf("sketch payload pushed to a controller that never asked: %+v", a)
	}
}

// A JSON-pinned controller sends no hello at all; it too must keep
// getting the legacy enumeration from a sketch-mode agent.
func TestInteropSketchAgentJSONController(t *testing.T) {
	ctl, c := sketchAgentSetup(t, func(c *TCPClient) { c.Codec = wire.CodecJSON })
	rec := sampleVSwitch(t, ctl)
	if got := c.NegotiatedCodec(); got != wire.CodecJSON {
		t.Fatalf("negotiated %q; want %q", got, wire.CodecJSON)
	}
	if v := rec.GetOr(core.AttrIDFor("rule_f1_packets"), 0); v == 0 {
		t.Fatalf("JSON controller lost per-rule counters: %+v", rec.Attrs)
	}
}
