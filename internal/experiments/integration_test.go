package experiments

import (
	"fmt"
	"testing"
	"time"

	"perfsight/internal/cluster"
	"perfsight/internal/core"
	"perfsight/internal/dataplane"
	"perfsight/internal/diagnosis"
	"perfsight/internal/machine"
	"perfsight/internal/middlebox"
	"perfsight/internal/stream"
)

// TestDiagnoseMemoryBandwidthContention reproduces the §7.2 case-2
// behaviour end to end through agents and controller: memory hogs starve
// the datapath, drops appear at multiple VMs' TUNs, and Algorithm 1 plus
// the rule book blame memory bandwidth.
func TestDiagnoseMemoryBandwidthContention(t *testing.T) {
	l := NewLab(time.Millisecond)
	defer l.Close()
	m := l.DefaultMachine("m0")
	const tid = core.TenantID("t1")

	for i := 0; i < 4; i++ {
		vm := core.VMID(fmt.Sprintf("vm%d", i))
		sink := middlebox.NewSink(core.ElementID(fmt.Sprintf("m0/%s/app", vm)), 2e9)
		l.C.PlaceVM("m0", vm, 1.0, 2e9, sink)
		hn := fmt.Sprintf("h%d", i)
		host := l.C.AddHost(hn, 0)
		conn := l.C.Connect(dataplane.FlowID(fmt.Sprintf("flow-%d", i)),
			cluster.HostEndpoint(hn), cluster.VMEndpoint("m0", vm), stream.Config{})
		host.AddSource(conn, 600e6) // below capacity: a healthy baseline
	}
	if err := l.BuildAgents(); err != nil {
		t.Fatal(err)
	}
	l.C.AssignStack(tid, "m0")
	for i := 0; i < 4; i++ {
		l.C.AssignVM(tid, "m0", core.VMID(fmt.Sprintf("vm%d", i)))
	}

	l.Run(2 * time.Second) // warm up

	m.AddHog(&machine.Hog{Name: "memhog", Kind: machine.HogMem, MemDemandBps: 26e9, CyclesPerByte: 0.5})

	// Diagnose across the onset and early steady state, as an operator
	// responding to a degradation ticket would.
	rep, err := diagnosis.FindContentionAndBottleneck(l.Ctl, tid, 3*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.TotalLoss == 0 {
		t.Fatalf("expected packet loss under memory contention; report: %s", rep)
	}
	if rep.TopLocation != diagnosis.LocTUNAggregated {
		t.Fatalf("drop location = %s; want tun-aggregated\nranked: %+v", rep.TopLocation, rep.Ranked)
	}
	if rep.Scope != diagnosis.ScopeContention {
		t.Fatalf("scope = %s; want contention (dropping VMs: %v)", rep.Scope, rep.DroppingVMs)
	}
	if rep.Inferred != diagnosis.ResourceMemoryBandwidth {
		t.Fatalf("inferred = %s (evidence %+v); want memory-bandwidth", rep.Inferred, rep.Evidence)
	}
}

// TestDiagnoseVMBottleneck verifies a single under-provisioned VM is
// reported as a bottleneck at its own TUN (Table 1 last row).
func TestDiagnoseVMBottleneck(t *testing.T) {
	l := NewLab(time.Millisecond)
	defer l.Close()
	l.DefaultMachine("m0")
	const tid = core.TenantID("t1")

	// vm0 is healthy, vm1 is starved of vCPU.
	sink0 := middlebox.NewSink("m0/vm0/app", 1e9)
	l.C.PlaceVM("m0", "vm0", 1.0, 1e9, sink0)
	sink1 := middlebox.NewSink("m0/vm1/app", 1e9)
	l.C.PlaceVM("m0", "vm1", 0.02, 1e9, sink1)

	gw := l.C.AddHost("gw", 0)
	l.C.RouteFlow("f0", cluster.HostEndpoint("gw"), cluster.VMEndpoint("m0", "vm0"))
	l.C.RouteFlow("f1", cluster.HostEndpoint("gw"), cluster.VMEndpoint("m0", "vm1"))
	l.C.AddPostTickFunc(func(now, dt time.Duration) {
		for _, f := range []dataplane.FlowID{"f0", "f1"} {
			bytes := int64(400e6 / 8 * dt.Seconds())
			gw.EmitRaw(dataplane.Batch{Flow: f, Packets: int(bytes / 1448), Bytes: bytes})
		}
	})

	if err := l.BuildAgents(); err != nil {
		t.Fatal(err)
	}
	l.C.AssignStack(tid, "m0")
	l.C.AssignVM(tid, "m0", "vm0")
	l.C.AssignVM(tid, "m0", "vm1")

	l.Run(2 * time.Second)
	rep, err := diagnosis.FindContentionAndBottleneck(l.Ctl, tid, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Scope != diagnosis.ScopeBottleneck {
		t.Fatalf("scope = %s (loc %s, dropping %v); want bottleneck", rep.Scope, rep.TopLocation, rep.DroppingVMs)
	}
	if rep.BottleneckVM != "vm1" {
		t.Fatalf("bottleneck VM = %s; want vm1", rep.BottleneckVM)
	}
	if rep.Inferred != diagnosis.ResourceVMBottleneck {
		t.Fatalf("inferred = %s; want vm-bottleneck", rep.Inferred)
	}
}

// TestDiagnoseChainRootCause verifies Algorithm 2 end to end: in a
// client -> LB -> proxy -> server chain with a slow server, the blocked
// states propagate upstream and pruning isolates the server.
func TestDiagnoseChainRootCause(t *testing.T) {
	l := NewLab(time.Millisecond)
	defer l.Close()
	l.DefaultMachine("m0")
	const tid = core.TenantID("t1")
	const C = 100e6 // vNIC capacity, as in Fig 12

	// Server: so expensive per byte it saturates below the vNIC rate.
	server := middlebox.NewServer("m0/vm-srv/app", C, 400)
	l.C.PlaceVM("m0", "vm-srv", 1.0, C, server)

	connPS := l.C.Connect("f-ps", cluster.VMEndpoint("m0", "vm-px"), cluster.VMEndpoint("m0", "vm-srv"), stream.Config{})
	proxy := middlebox.NewProxy("m0/vm-px/app", C, middlebox.ConnOutput{C: connPS})
	l.C.PlaceVM("m0", "vm-px", 1.0, C, proxy)

	connLP := l.C.Connect("f-lp", cluster.VMEndpoint("m0", "vm-lb"), cluster.VMEndpoint("m0", "vm-px"), stream.Config{})
	lb := middlebox.NewLoadBalancer("m0/vm-lb/app", C, middlebox.ConnOutput{C: connLP})
	l.C.PlaceVM("m0", "vm-lb", 1.0, C, lb)

	client := l.C.AddHost("client", 0)
	connCL := l.C.Connect("f-cl", cluster.HostEndpoint("client"), cluster.VMEndpoint("m0", "vm-lb"), stream.Config{})
	src := client.AddSource(connCL, 0) // as fast as possible

	if err := l.BuildAgents(); err != nil {
		t.Fatal(err)
	}
	l.C.AssignStack(tid, "m0")
	for _, vm := range []core.VMID{"vm-lb", "vm-px", "vm-srv"} {
		l.C.AssignVM(tid, "m0", vm)
	}
	l.C.AddChain(tid, "m0/vm-lb/app", "m0/vm-px/app", "m0/vm-srv/app")

	l.Run(3 * time.Second)

	rep, err := diagnosis.LocateRootCause(l.Ctl, tid, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RootCauses) != 1 || rep.RootCauses[0] != "m0/vm-srv/app" {
		t.Fatalf("root causes = %v; want [m0/vm-srv/app]\nmetrics: %+v", rep.RootCauses, rep.Metrics)
	}
	if s := rep.Metrics["m0/vm-lb/app"].State; s != diagnosis.StateWriteBlocked {
		t.Fatalf("LB state = %s; want WriteBlocked (metrics %+v)", s, rep.Metrics["m0/vm-lb/app"])
	}
	if s := rep.Metrics["m0/vm-px/app"].State; s != diagnosis.StateWriteBlocked {
		t.Fatalf("proxy state = %s; want WriteBlocked (metrics %+v)", s, rep.Metrics["m0/vm-px/app"])
	}

	// Underloaded client: slow the source to a trickle; everyone should be
	// ReadBlocked and the report should blame the source.
	src.SetRate(2e6)
	l.Run(2 * time.Second)
	rep, err = diagnosis.LocateRootCause(l.Ctl, tid, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.SourceUnderloaded {
		t.Fatalf("want SourceUnderloaded; got %s\nmetrics: %+v", rep, rep.Metrics)
	}
}
