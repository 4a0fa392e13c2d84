package experiments

import (
	"fmt"
	"testing"
	"time"

	"perfsight/internal/cluster"
	"perfsight/internal/core"
	"perfsight/internal/diagnosis"
	"perfsight/internal/middlebox"
	"perfsight/internal/stream"
)

// TestCrossMachineChainRootCause runs Algorithm 2 over a chain whose
// middleboxes live on different physical servers, each with its own agent:
// client -> LB (m0) -> proxy (m1) -> server (m2). The slow server must be
// isolated even though every hop's statistics come from a different agent.
func TestCrossMachineChainRootCause(t *testing.T) {
	l := NewLab(time.Millisecond)
	defer l.Close()
	l.C.RmemPerConn = 212992
	for i := 0; i < 3; i++ {
		l.DefaultMachine(core.MachineID(fmt.Sprintf("m%d", i)))
	}
	const tid = core.TenantID("t1")
	const C = 100e6

	server := middlebox.NewServer("m2/vm-srv/app", C, 600)
	l.C.PlaceVM("m2", "vm-srv", 1.0, C, server)

	connPS := l.C.Connect("f-ps", cluster.VMEndpoint("m1", "vm-px"), cluster.VMEndpoint("m2", "vm-srv"), stream.Config{})
	proxy := middlebox.NewProxy("m1/vm-px/app", C, middlebox.ConnOutput{C: connPS})
	l.C.PlaceVM("m1", "vm-px", 1.0, C, proxy)

	connLP := l.C.Connect("f-lp", cluster.VMEndpoint("m0", "vm-lb"), cluster.VMEndpoint("m1", "vm-px"), stream.Config{})
	lb := middlebox.NewLoadBalancer("m0/vm-lb/app", C, middlebox.ConnOutput{C: connLP})
	l.C.PlaceVM("m0", "vm-lb", 1.0, C, lb)

	client := l.C.AddHost("client", 0)
	connCL := l.C.Connect("f-cl", cluster.HostEndpoint("client"), cluster.VMEndpoint("m0", "vm-lb"), stream.Config{})
	client.AddSource(connCL, 0)

	if err := l.BuildAgents(); err != nil {
		t.Fatal(err)
	}
	l.C.AssignVM(tid, "m0", "vm-lb")
	l.C.AssignVM(tid, "m1", "vm-px")
	l.C.AssignVM(tid, "m2", "vm-srv")
	l.C.AddChain(tid, "m0/vm-lb/app", "m1/vm-px/app", "m2/vm-srv/app")

	l.Run(4 * time.Second)

	rep, err := diagnosis.LocateRootCause(l.Ctl, tid, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.RootCauses) != 1 || rep.RootCauses[0] != "m2/vm-srv/app" {
		t.Fatalf("root causes %v; want [m2/vm-srv/app]\nmetrics: %+v", rep.RootCauses, rep.Metrics)
	}
	if rep.Metrics["m0/vm-lb/app"].State != diagnosis.StateWriteBlocked {
		t.Fatalf("LB (two machines upstream) not WriteBlocked: %+v", rep.Metrics["m0/vm-lb/app"])
	}
	if rep.Metrics["m1/vm-px/app"].State != diagnosis.StateWriteBlocked {
		t.Fatalf("proxy not WriteBlocked: %+v", rep.Metrics["m1/vm-px/app"])
	}
}

// TestCrossMachineThroughputConservation: bytes that leave the pNIC of an
// upstream machine must match what the downstream machine's pNIC admits
// (minus anything dropped there) — the inter-machine wire loses nothing.
func TestCrossMachineThroughputConservation(t *testing.T) {
	l := NewLab(time.Millisecond)
	defer l.Close()
	l.DefaultMachine("m0")
	l.DefaultMachine("m1")

	sink := middlebox.NewSink("m1/vm-b/app", 1e9)
	l.C.PlaceVM("m1", "vm-b", 1.0, 1e9, sink)
	conn := l.C.Connect("f", cluster.VMEndpoint("m0", "vm-a"), cluster.VMEndpoint("m1", "vm-b"), stream.Config{})
	src := middlebox.NewConnSource("m0/vm-a/app", 1e9, conn, 400e6)
	l.C.PlaceVM("m0", "vm-a", 1.0, 1e9, src)

	l.Run(3 * time.Second)

	sent := l.C.Machine("m0").Stack.PNic.ES.Tx.Bytes.Load()
	recv := l.C.Machine("m1").Stack.PNic.ES.Rx.Bytes.Load()
	dropped := l.C.Machine("m1").Stack.PNic.ES.Drop.Bytes.Load()
	if sent == 0 {
		t.Fatal("no cross-machine traffic")
	}
	// One tick of store-and-forward may be in flight.
	inFlightSlack := uint64(2e6)
	if recv+dropped+inFlightSlack < sent {
		t.Fatalf("wire lost bytes: sent %d, received %d, dropped %d", sent, recv, dropped)
	}
	if got := float64(conn.DeliveredBytes()) * 8 / 3; got < 300e6 {
		t.Fatalf("end-to-end %.0f bps; want ~400 Mbps", got)
	}
}
