package cluster

import (
	"testing"
	"time"

	"perfsight/internal/core"
	"perfsight/internal/dataplane"
	"perfsight/internal/machine"
	"perfsight/internal/middlebox"
	"perfsight/internal/stream"
)

// newTestMachine returns a default 8-core machine config.
func testMachineCfg(id core.MachineID) machine.Config {
	return machine.DefaultConfig(id)
}

// TestHostToVMStreamThroughput pushes a stream from an external host into
// a VM sink and checks the achieved rate approaches the vNIC capacity.
func TestHostToVMStreamThroughput(t *testing.T) {
	c := New(time.Millisecond)
	c.AddMachine(testMachineCfg("m0"))
	sink := middlebox.NewSink("m0/vm0/app", 1e9)
	c.PlaceVM("m0", "vm0", 1.0, 1e9, sink)
	client := c.AddHost("client", 0)

	conn := c.Connect("f1", HostEndpoint("client"), VMEndpoint("m0", "vm0"), stream.Config{})
	client.AddSource(conn, 0) // as fast as possible

	c.Run(3 * time.Second)

	gotBps := float64(conn.DeliveredBytes()) * 8 / 3.0
	if gotBps < 0.5e9 {
		t.Fatalf("stream throughput %.0f bps; want at least half of the 1 Gbps vNIC", gotBps)
	}
	if gotBps > 1.1e9 {
		t.Fatalf("stream throughput %.0f bps exceeds the 1 Gbps vNIC", gotBps)
	}
	if sink.ReceivedBytes() == 0 {
		t.Fatal("sink read nothing")
	}
}

// TestVMToHostStreamThroughput checks the reverse (egress) path.
func TestVMToHostStreamThroughput(t *testing.T) {
	c := New(time.Millisecond)
	c.AddMachine(testMachineCfg("m0"))
	c.AddHost("server", 0)

	conn := c.Connect("f1", VMEndpoint("m0", "vm0"), HostEndpoint("server"), stream.Config{})
	src := middlebox.NewConnSource("m0/vm0/app", 1e9, conn, 0)
	c.PlaceVM("m0", "vm0", 1.0, 1e9, src)

	c.Run(3 * time.Second)

	gotBps := float64(conn.DeliveredBytes()) * 8 / 3.0
	if gotBps < 0.5e9 || gotBps > 1.1e9 {
		t.Fatalf("egress throughput %.0f bps; want ~1 Gbps", gotBps)
	}
}

// TestVMToVMSameMachine exercises the hairpin path through the backlog and
// vswitch without touching the pNIC.
func TestVMToVMSameMachine(t *testing.T) {
	c := New(time.Millisecond)
	c.AddMachine(testMachineCfg("m0"))

	sink := middlebox.NewSink("m0/vm1/app", 1e9)
	c.PlaceVM("m0", "vm1", 1.0, 1e9, sink)
	conn := c.Connect("f1", VMEndpoint("m0", "vm0"), VMEndpoint("m0", "vm1"), stream.Config{})
	src := middlebox.NewConnSource("m0/vm0/app", 1e9, conn, 0)
	c.PlaceVM("m0", "vm0", 1.0, 1e9, src)

	c.Run(2 * time.Second)

	got := float64(conn.DeliveredBytes()) * 8 / 2.0
	if got < 0.4e9 {
		t.Fatalf("hairpin throughput %.0f bps; want >= 0.4 Gbps", got)
	}
	m := c.Machine("m0")
	if tx := m.Stack.PNic.ES.Tx.Packets.Load(); tx != 0 {
		t.Fatalf("hairpin traffic leaked to the pNIC: %d packets", tx)
	}
}

// TestChainThroughVM checks a host -> middlebox VM -> host forwarding
// chain delivers end to end.
func TestChainThroughVM(t *testing.T) {
	c := New(time.Millisecond)
	c.AddMachine(testMachineCfg("m0"))
	client := c.AddHost("client", 0)
	c.AddHost("server", 0)

	out := c.Connect("f-out", VMEndpoint("m0", "vm0"), HostEndpoint("server"), stream.Config{})
	proxy := middlebox.NewProxy("m0/vm0/app", 1e9, middlebox.ConnOutput{C: out})
	c.PlaceVM("m0", "vm0", 1.0, 1e9, proxy)

	in := c.Connect("f-in", HostEndpoint("client"), VMEndpoint("m0", "vm0"), stream.Config{})
	client.AddSource(in, 200e6)

	c.Run(3 * time.Second)

	inBps := float64(in.DeliveredBytes()) * 8 / 3.0
	outBps := float64(out.DeliveredBytes()) * 8 / 3.0
	if inBps < 150e6 {
		t.Fatalf("chain ingress %.0f bps; want ~200 Mbps", inBps)
	}
	if outBps < 0.85*inBps {
		t.Fatalf("chain egress %.0f bps lags ingress %.0f bps", outBps, inBps)
	}
	if proxy.ProcessedBytes() == 0 {
		t.Fatal("proxy processed nothing")
	}
}

// TestRawFloodDrops verifies an open-loop flood beyond pNIC capacity drops
// at the pNIC (the Table 1 incoming-bandwidth symptom).
func TestRawFloodDrops(t *testing.T) {
	cfg := testMachineCfg("m0")
	cfg.Stack.PNICRxBps = 1e9
	cfg.Stack.PNICTxBps = 1e9
	c := New(time.Millisecond)
	c.AddMachine(cfg)
	sink := middlebox.NewSink("m0/vm0/app", 10e9)
	c.PlaceVM("m0", "vm0", 2.0, 10e9, sink)
	gw := c.AddHost("gw", 0)
	c.RouteFlow("flood", HostEndpoint("gw"), VMEndpoint("m0", "vm0"))

	c.AddPostTickFunc(func(now, dt time.Duration) {
		bytes := int64(3e9 / 8 * dt.Seconds()) // 3 Gbps into a 1 Gbps NIC
		gw.EmitRaw(dataplane.Batch{Flow: "flood", Packets: int(bytes / 1500), Bytes: bytes})
	})
	c.Run(2 * time.Second)

	m := c.Machine("m0")
	drops := m.Stack.PNic.ES.Drop.Packets.Load()
	if drops == 0 {
		t.Fatal("no pNIC drops under 3x overload")
	}
	rx := m.Stack.PNic.ES.Rx.Packets.Load()
	if rx == 0 {
		t.Fatal("pNIC admitted nothing")
	}
}

// Per-tick scenario work registered with AddPostTickFunc must keep
// running after Parallelize swaps the engine: N ticks, N calls, on the
// default engine and the sharded one.
func TestPostTickFuncSurvivesParallelize(t *testing.T) {
	for _, parallel := range []bool{false, true} {
		c := New(time.Millisecond)
		c.AddMachine(testMachineCfg("m0"))
		c.AddMachine(testMachineCfg("m1"))
		ticks := 0
		c.AddPostTickFunc(func(now, dt time.Duration) { ticks++ })
		if parallel {
			c.Parallelize(2, 2, 1)
		}
		c.Run(25 * time.Millisecond)
		c.Close()
		if ticks != 25 {
			t.Fatalf("parallel=%v: post-tick func ran %d times over 25 ticks", parallel, ticks)
		}
	}
}
