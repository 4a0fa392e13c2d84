package experiments

import (
	"net"
	"testing"
	"time"

	"perfsight/internal/cluster"
	"perfsight/internal/controller"
	"perfsight/internal/core"
	"perfsight/internal/diagnosis"
	"perfsight/internal/middlebox"
	"perfsight/internal/stream"
)

// TestAgentDeathSurfacesAsError: a controller whose agent's TCP endpoint
// dies must return errors, not hang or panic, and must recover once the
// agent is back.
func TestAgentDeathSurfacesAsError(t *testing.T) {
	l := NewLab(time.Millisecond)
	defer l.Close()
	l.DefaultMachine("m0")
	sink := middlebox.NewSink("m0/vm0/app", 1e9)
	l.C.PlaceVM("m0", "vm0", 1.0, 1e9, sink)
	if err := l.BuildAgents(); err != nil {
		t.Fatal(err)
	}
	const tid = core.TenantID("t1")
	l.C.AssignStack(tid, "m0")
	l.C.AssignVM(tid, "m0", "vm0")

	// Serve the agent over real TCP and point the controller at it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go l.Agents["m0"].Serve(ln)
	client := controller.NewTCPClient(ln.Addr().String())
	client.Timeout = 500 * time.Millisecond
	l.Ctl.RegisterAgent("m0", client)

	if _, err := l.Ctl.GetAttr(tid, "m0/pnic"); err != nil {
		t.Fatalf("healthy agent query failed: %v", err)
	}

	// Kill the agent.
	ln.Close()
	client.Close()
	if _, err := l.Ctl.GetAttr(tid, "m0/pnic"); err == nil {
		t.Fatal("query against a dead agent succeeded")
	}

	// Restart on a new port and re-register (operator action).
	ln2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln2.Close()
	go l.Agents["m0"].Serve(ln2)
	l.Ctl.RegisterAgent("m0", controller.NewTCPClient(ln2.Addr().String()))
	if _, err := l.Ctl.GetAttr(tid, "m0/pnic"); err != nil {
		t.Fatalf("query after agent restart failed: %v", err)
	}
}

// TestTopologyChurnMidQuery: a VM migrated away between samples must yield
// partial results and keep diagnosis usable for the remaining elements.
func TestTopologyChurnMidQuery(t *testing.T) {
	l := NewLab(time.Millisecond)
	defer l.Close()
	l.DefaultMachine("m0")
	for _, vm := range []core.VMID{"vm0", "vm1"} {
		l.C.PlaceVM("m0", vm, 1.0, 1e9, middlebox.NewSink(core.ElementID("m0/"+string(vm)+"/app"), 1e9))
	}
	if err := l.BuildAgents(); err != nil {
		t.Fatal(err)
	}
	const tid = core.TenantID("t1")
	l.C.AssignStack(tid, "m0")
	l.C.AssignVM(tid, "m0", "vm0")
	l.C.AssignVM(tid, "m0", "vm1")
	l.Run(time.Second)

	// Migrate vm1 away and rebuild the agent; the topology still lists it.
	l.C.MigrateVM("m0", "vm1")
	if err := l.RefreshAgent("m0"); err != nil {
		t.Fatal(err)
	}

	ids := l.Ctl.TenantElements(tid, nil)
	recs, err := l.Ctl.Sample(tid, ids)
	if err == nil {
		t.Fatal("sampling a missing VM should report an error")
	}
	if _, ok := recs["m0/pnic"]; !ok {
		t.Fatal("partial results must still include live elements")
	}
	if _, ok := recs["m0/vm1/tun"]; ok {
		t.Fatal("migrated VM's element still returned")
	}

	// Diagnosis over the surviving elements must still work.
	rep, derr := diagnosis.FindContentionAndBottleneck(l.Ctl, tid, 500*time.Millisecond)
	if derr != nil {
		t.Fatalf("diagnosis unusable after churn: %v", derr)
	}
	if rep == nil {
		t.Fatal("nil report")
	}
}

// TestStalledAgentBoundedSweep: the acceptance check for the concurrent
// collection layer. One of four TCP agents accepts but never answers; a
// full-fleet Sample must return the other machines' records within ~one
// sweep deadline (not fleet × timeout), and the next sweep must skip the
// dead agent via its open breaker.
func TestStalledAgentBoundedSweep(t *testing.T) {
	const deadline = 300 * time.Millisecond
	r, err := RunFanout(4, deadline)
	if err != nil {
		t.Fatal(err)
	}
	if r.PartialRecords == 0 {
		t.Fatal("stalled sweep lost the healthy machines' records")
	}
	if r.Stalled >= 4*deadline {
		t.Fatalf("stalled sweep took %v; must be bounded by the %v deadline, not fleet size", r.Stalled, deadline)
	}
	if r.Stalled < deadline/2 {
		t.Fatalf("stalled sweep took %v; expected it to wait out most of the %v deadline", r.Stalled, deadline)
	}
	if !r.SkipErr {
		t.Fatal("follow-up sweep did not surface the breaker-skip error")
	}
	if r.Skipped >= deadline/2 {
		t.Fatalf("breaker-open sweep took %v; skipping must not re-pay the deadline", r.Skipped)
	}
	if !r.ShapeCorrect() {
		t.Fatalf("fan-out shape wrong:\n%s", r)
	}
}

// TestCountersMonotonicUnderLoad: every monotonic counter must never
// decrease across samples, whatever the traffic does — the interval
// arithmetic of Figure 6 depends on it.
func TestCountersMonotonicUnderLoad(t *testing.T) {
	l := NewLab(time.Millisecond)
	defer l.Close()
	l.DefaultMachine("m0")
	sink := middlebox.NewSink("m0/vm0/app", 1e9)
	l.C.PlaceVM("m0", "vm0", 1.0, 1e9, sink)
	h := l.C.AddHost("h", 0)
	for j := 0; j < 4; j++ {
		conn := l.C.Connect(flowID(string(rune('a'+j))), cluster.HostEndpoint("h"),
			cluster.VMEndpoint("m0", "vm0"), stream.Config{})
		h.AddSource(conn, 400e6)
	}
	if err := l.BuildAgents(); err != nil {
		t.Fatal(err)
	}
	const tid = core.TenantID("t1")
	l.C.AssignStack(tid, "m0")
	l.C.AssignVM(tid, "m0", "vm0")

	ids := l.Ctl.TenantElements(tid, nil)
	prev, _ := l.Ctl.Sample(tid, ids)
	monotonic := []core.AttrID{
		core.AttrRxPackets, core.AttrRxBytes, core.AttrTxPackets,
		core.AttrTxBytes, core.AttrDropPackets,
		core.AttrInBytes, core.AttrInTimeNS, core.AttrOutBytes, core.AttrOutTimeNS,
	}
	for round := 0; round < 10; round++ {
		l.Run(200 * time.Millisecond)
		cur, _ := l.Ctl.Sample(tid, ids)
		for id, c := range cur {
			p, ok := prev[id]
			if !ok {
				continue
			}
			for _, attr := range monotonic {
				pv, okP := p.Get(attr)
				cv, okC := c.Get(attr)
				if okP && okC && cv < pv {
					t.Fatalf("round %d: %s %s went backwards: %v -> %v", round, id, core.AttrName(attr), pv, cv)
				}
			}
		}
		prev = cur
	}
}

// TestDiagnosisOnEmptyTenant: querying a tenant with no elements is an
// error, not a crash.
func TestDiagnosisOnEmptyTenant(t *testing.T) {
	l := NewLab(time.Millisecond)
	defer l.Close()
	l.DefaultMachine("m0")
	if err := l.BuildAgents(); err != nil {
		t.Fatal(err)
	}
	if _, err := diagnosis.FindContentionAndBottleneck(l.Ctl, "ghost", time.Second); err == nil {
		t.Fatal("empty tenant diagnosed")
	}
	if _, err := diagnosis.LocateRootCause(l.Ctl, "ghost", time.Second); err == nil {
		t.Fatal("empty tenant chain-diagnosed")
	}
}
