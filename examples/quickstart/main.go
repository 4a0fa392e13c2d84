// Quickstart: build a one-machine software dataplane, push traffic through
// a middlebox VM, and use the PerfSight controller's Figure 6 utility
// routines (GetThroughput, GetPktLoss, GetAvgPktSize) to monitor it.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"perfsight/internal/agent"
	"perfsight/internal/cluster"
	"perfsight/internal/controller"
	"perfsight/internal/core"
	"perfsight/internal/machine"
	"perfsight/internal/middlebox"
	"perfsight/internal/stream"
)

func main() {
	// 1. A cluster with one testbed-like machine (8 cores, 10 GbE) and a
	//    proxy middlebox VM, advanced in 1 ms virtual-time ticks.
	c := cluster.New(time.Millisecond)
	c.AddMachine(machine.DefaultConfig("m0"))

	c.AddHost("server", 0)
	out := c.Connect("proxy-out", cluster.VMEndpoint("m0", "vm0"), cluster.HostEndpoint("server"), stream.Config{})
	proxy := middlebox.NewProxy("m0/vm0/app", 1e9, middlebox.ConnOutput{C: out})
	c.PlaceVM("m0", "vm0", 1.0, 1e9, proxy)

	// 2. A client pushing 300 Mbps through the proxy.
	client := c.AddHost("client", 0)
	in := c.Connect("proxy-in", cluster.HostEndpoint("client"), cluster.VMEndpoint("m0", "vm0"), stream.Config{})
	client.AddSource(in, 300e6)

	// 3. The PerfSight pieces: a per-server agent wired to every element,
	//    and a controller whose measurement windows advance virtual time.
	a, err := agent.Build(c.Machine("m0"), agent.BuildOptions{Clock: c.NowNS})
	if err != nil {
		log.Fatal(err)
	}
	defer a.Close()
	ctl := controller.New(c.Topology())
	ctl.Wait = func(d time.Duration) { c.Run(d) }
	ctl.RegisterAgent("m0", &controller.LocalClient{A: a})

	const tenant = core.TenantID("t1")
	c.AssignStack(tenant, "m0")
	c.AssignVM(tenant, "m0", "vm0")

	// 4. Let the deployment warm up, then monitor specific elements.
	c.Run(2 * time.Second)

	tput, err := ctl.GetThroughput(tenant, "m0/pnic", core.AttrRxBytes, time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("pNIC receive throughput:  %.0f Mbps\n", tput/1e6)

	loss, err := ctl.GetPktLoss(tenant, "m0/vm0/tun", time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("TUN packet loss:          %.0f packets/s\n", loss)

	size, err := ctl.GetAvgPktSize(tenant, "m0/pnic", time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("average packet size:      %.0f bytes\n", size)

	// 5. Any element can be queried in the unified record format.
	rec, err := ctl.GetAttr(tenant, "m0/vm0/app")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("middlebox record:         %s\n", rec)
	fmt.Printf("proxy forwarded:          %.0f MB end to end\n", float64(out.DeliveredBytes())/1e6)
}
