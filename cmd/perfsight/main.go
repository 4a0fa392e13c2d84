// Command perfsight is the all-in-one operator demo: it deploys a canned
// scenario on the simulated testbed, lets it run, and prints what the
// PerfSight diagnosis applications conclude.
//
//	perfsight -scenario list
//	perfsight -scenario membw
//	perfsight -scenario chain
//
// The top subcommand polls a running agent's or controller's /metrics
// endpoint and renders a live self-metrics table:
//
//	perfsight top -endpoint http://localhost:9100/metrics -interval 1s
//
// The history, watch, and diag subcommands talk to a flight-recorder
// controller (perfsight-controller -monitor 2s -telemetry :9101):
//
//	perfsight history -endpoint http://localhost:9101 -element m0/vm0/app -attr drop_packets
//	perfsight watch -endpoint http://localhost:9101
//	perfsight diag -endpoint http://localhost:9101 -at 2026-08-05T12:00:00Z -window 3s
//
// The incidents subcommand lists the anomaly pipeline's correlated
// incidents, shows one incident's event timeline, or follows the live
// diagnosis-event stream:
//
//	perfsight incidents -endpoint http://localhost:9101
//	perfsight incidents -id 3
//	perfsight incidents -follow
//
// The flows subcommand ranks an element's per-flow traffic, heaviest
// first — from the constant-memory flow_sketch summary when the agent
// runs -flow-stats=sketch (heavy hitters with exactness flags plus the
// ε·N bound for everything else), or from legacy rule_* enumeration:
//
//	perfsight flows -endpoint http://localhost:9101 -element m0/vswitch -k 10
//
// The trace subcommand lists the controller's recent queries with their
// structured status (error + failing stage) and renders one retained
// trace as an ASCII waterfall — controller stages plus the agent's
// skew-corrected per-channel gather spans:
//
//	perfsight trace -endpoint http://localhost:9101
//	perfsight trace -id 42
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"perfsight/internal/agent"
	"perfsight/internal/cluster"
	"perfsight/internal/controller"
	"perfsight/internal/core"
	"perfsight/internal/dataplane"
	"perfsight/internal/diagnosis"
	"perfsight/internal/machine"
	"perfsight/internal/middlebox"
	"perfsight/internal/stream"
)

type scenario struct {
	name, about string
	run         func() error
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "top":
			runTop(os.Args[2:])
			return
		case "history":
			runHistory(os.Args[2:])
			return
		case "watch":
			runWatch(os.Args[2:])
			return
		case "diag":
			runDiag(os.Args[2:])
			return
		case "incidents":
			runIncidents(os.Args[2:])
			return
		case "flows":
			runFlows(os.Args[2:])
			return
		case "trace":
			runTrace(os.Args[2:])
			return
		}
	}
	name := flag.String("scenario", "list", "scenario to run (or 'list')")
	flag.Parse()

	scenarios := []scenario{
		{"membw", "memory-bandwidth contention across VMs (Fig 11)", runMembw},
		{"backlog", "pCPU backlog contention from a small-packet flood (Fig 10)", runBacklog},
		{"bottleneck", "a single under-provisioned VM (Table 1, last row)", runBottleneck},
		{"chain", "root-cause middlebox in a chain under propagation (Fig 12)", runChain},
	}

	if *name == "list" {
		fmt.Println("available scenarios:")
		for _, s := range scenarios {
			fmt.Printf("  %-12s %s\n", s.name, s.about)
		}
		return
	}
	for _, s := range scenarios {
		if s.name == *name {
			if err := s.run(); err != nil {
				log.Fatal(err)
			}
			return
		}
	}
	fmt.Fprintf(os.Stderr, "unknown scenario %q; try -scenario list\n", *name)
	os.Exit(2)
}

const tid = core.TenantID("demo")

// lab wires a cluster to a controller whose waits advance virtual time.
type lab struct {
	c   *cluster.Cluster
	ctl *controller.Controller
}

func newLab() *lab {
	c := cluster.New(time.Millisecond)
	ctl := controller.New(c.Topology())
	ctl.Wait = func(d time.Duration) { c.Run(d) }
	return &lab{c: c, ctl: ctl}
}

func (l *lab) attachAgents() error {
	for _, mid := range l.c.Machines() {
		a, err := agent.Build(l.c.Machine(mid), agent.BuildOptions{Clock: l.c.NowNS})
		if err != nil {
			return err
		}
		l.ctl.RegisterAgent(mid, &controller.LocalClient{A: a})
	}
	return nil
}

func runMembw() error {
	l := newLab()
	m := l.c.AddMachine(machine.DefaultConfig("m0"))
	for i := 0; i < 4; i++ {
		vm := core.VMID(fmt.Sprintf("vm%d", i))
		sink := middlebox.NewSink(core.ElementID(fmt.Sprintf("m0/%s/app", vm)), 2e9)
		l.c.PlaceVM("m0", vm, 1.0, 2e9, sink)
		host := l.c.AddHost(fmt.Sprintf("h%d", i), 0)
		for j := 0; j < 4; j++ {
			conn := l.c.Connect(flow("f%d-%d", i, j), cluster.HostEndpoint(fmt.Sprintf("h%d", i)),
				cluster.VMEndpoint("m0", vm), stream.Config{})
			host.AddSource(conn, 200e6)
		}
		l.c.AssignVM(tid, "m0", vm)
	}
	l.c.AssignStack(tid, "m0")
	if err := l.attachAgents(); err != nil {
		return err
	}

	tracer := l.c.EnableDropTracing("m0", 4096)

	fmt.Println("warming up a healthy deployment (4 VMs receiving ~3.2 Gbps)...")
	l.c.Run(3 * time.Second)
	rep, err := diagnosis.FindContentionAndBottleneck(l.ctl, tid, time.Second)
	if err != nil {
		return err
	}
	fmt.Println("baseline:", rep)

	fmt.Println("\nstarting memory-intensive VMs (streaming 26 GB/s)...")
	m.AddHog(&machine.Hog{Name: "memvms", Kind: machine.HogMem, MemDemandBps: 26e9, CyclesPerByte: 0.33})
	rep, err = diagnosis.FindContentionAndBottleneck(l.ctl, tid, 3*time.Second)
	if err != nil {
		return err
	}
	fmt.Println("diagnosis:", rep)
	fmt.Printf("evidence: cpu %.0f%%, membus %.0f%%\n",
		rep.Evidence.CPUUtil*100, rep.Evidence.MembusUtil*100)
	fmt.Print(tracer)
	fmt.Println("operator action: migrate the memory-intensive VMs (§7.3)")
	return nil
}

func runBacklog() error {
	l := newLab()
	cfg := machine.DefaultConfig("m0")
	cfg.Stack.PNICRxBps = 1e9
	cfg.Stack.PNICTxBps = 1e9
	cfg.Stack.BacklogQueues = 1
	cfg.Stack.Costs.NAPICyclesPerPkt = 9000
	l.c.AddMachine(cfg)

	sink := middlebox.NewSink("m0/vm1/app", 1e9)
	l.c.PlaceVM("m0", "vm1", 1.0, 1e9, sink)
	src := l.c.AddHost("src", 0)
	for j := 0; j < 4; j++ {
		conn := l.c.Connect(flow("rx-%d", j, 0), cluster.HostEndpoint("src"),
			cluster.VMEndpoint("m0", "vm1"), stream.Config{})
		src.AddSource(conn, 125e6)
	}
	l.c.AddHost("peer", 0)
	flood := middlebox.NewRawSource("m0/vm2/app", 1e9, "smallpkts", 0, 64, nil)
	l.c.PlaceVM("m0", "vm2", 1.0, 1e9, flood)
	l.c.RouteFlow("smallpkts", cluster.VMEndpoint("m0", "vm2"), cluster.HostEndpoint("peer"))
	l.c.AssignStack(tid, "m0")
	l.c.AssignVM(tid, "m0", "vm1")
	l.c.AssignVM(tid, "m0", "vm2")
	if err := l.attachAgents(); err != nil {
		return err
	}

	fmt.Println("VM1 receiving 500 Mbps; VM2 idle...")
	l.c.Run(3 * time.Second)
	before := sink.ReceivedBytes()
	l.c.Run(time.Second)
	fmt.Printf("flow 1: %.0f Mbps\n", float64(sink.ReceivedBytes()-before)*8/1e6)

	fmt.Println("\nVM2 floods 64-byte packets as fast as it can...")
	flood.RateBps = 400e6
	rep, err := diagnosis.FindContentionAndBottleneck(l.ctl, tid, 3*time.Second)
	if err != nil {
		return err
	}
	before = sink.ReceivedBytes()
	l.c.Run(time.Second)
	fmt.Printf("flow 1 now: %.0f Mbps\n", float64(sink.ReceivedBytes()-before)*8/1e6)
	fmt.Println("diagnosis:", rep)
	fmt.Printf("NIC check: rx+tx %.0f Mbps of %.0f Mbps — the wire is NOT the problem\n",
		(rep.Evidence.PNICRxBps+rep.Evidence.PNICTxBps)/1e6, rep.Evidence.PNICCapBps/1e6)
	return nil
}

func runBottleneck() error {
	l := newLab()
	l.c.AddMachine(machine.DefaultConfig("m0"))
	l.c.PlaceVM("m0", "vm0", 1.0, 1e9, middlebox.NewSink("m0/vm0/app", 1e9))
	l.c.PlaceVM("m0", "vm1", 0.02, 1e9, middlebox.NewSink("m0/vm1/app", 1e9)) // starved
	gw := l.c.AddHost("gw", 0)
	l.c.RouteFlow("f0", cluster.HostEndpoint("gw"), cluster.VMEndpoint("m0", "vm0"))
	l.c.RouteFlow("f1", cluster.HostEndpoint("gw"), cluster.VMEndpoint("m0", "vm1"))
	l.c.AddPostTickFunc(func(now, dt time.Duration) {
		for _, f := range []string{"f0", "f1"} {
			bytes := int64(400e6 / 8 * dt.Seconds())
			gw.EmitRaw(wireBatch(f, bytes))
		}
	})
	l.c.AssignStack(tid, "m0")
	l.c.AssignVM(tid, "m0", "vm0")
	l.c.AssignVM(tid, "m0", "vm1")
	if err := l.attachAgents(); err != nil {
		return err
	}

	fmt.Println("two VMs each receiving 400 Mbps; vm1 has 2% of a core...")
	l.c.Run(2 * time.Second)
	rep, err := diagnosis.FindContentionAndBottleneck(l.ctl, tid, 3*time.Second)
	if err != nil {
		return err
	}
	fmt.Println("diagnosis:", rep)
	fmt.Println("operator action: the tenant should redeploy", rep.BottleneckVM, "in a larger VM (§2.2)")
	return nil
}

func runChain() error {
	l := newLab()
	l.c.RmemPerConn = 212992
	l.c.AddMachine(machine.DefaultConfig("m0"))
	const C = 100e6

	server := middlebox.NewServer("m0/vm-srv/app", C, 600)
	l.c.PlaceVM("m0", "vm-srv", 1.0, C, server)
	toSrv := l.c.Connect("px-srv", cluster.VMEndpoint("m0", "vm-px"), cluster.VMEndpoint("m0", "vm-srv"), stream.Config{})
	proxy := middlebox.NewProxy("m0/vm-px/app", C, middlebox.ConnOutput{C: toSrv})
	l.c.PlaceVM("m0", "vm-px", 1.0, C, proxy)
	toPx := l.c.Connect("lb-px", cluster.VMEndpoint("m0", "vm-lb"), cluster.VMEndpoint("m0", "vm-px"), stream.Config{})
	lb := middlebox.NewLoadBalancer("m0/vm-lb/app", C, middlebox.ConnOutput{C: toPx})
	l.c.PlaceVM("m0", "vm-lb", 1.0, C, lb)
	client := l.c.AddHost("client", 0)
	in := l.c.Connect("cl-lb", cluster.HostEndpoint("client"), cluster.VMEndpoint("m0", "vm-lb"), stream.Config{})
	client.AddSource(in, 0)

	l.c.AssignStack(tid, "m0")
	for _, vm := range []core.VMID{"vm-lb", "vm-px", "vm-srv"} {
		l.c.AssignVM(tid, "m0", vm)
	}
	l.c.AddChain(tid, "m0/vm-lb/app", "m0/vm-px/app", "m0/vm-srv/app")
	if err := l.attachAgents(); err != nil {
		return err
	}

	fmt.Println("client -> LB -> proxy -> server; the client POSTs as fast as possible...")
	l.c.Run(3 * time.Second)
	rep, err := diagnosis.LocateRootCause(l.ctl, tid, 2*time.Second)
	if err != nil {
		return err
	}
	for _, id := range []core.ElementID{"m0/vm-lb/app", "m0/vm-px/app", "m0/vm-srv/app"} {
		m := rep.Metrics[id]
		fmt.Printf("  %-16s b/t_in %10.1f Mbps  b/t_out %10.1f Mbps  %s\n",
			id.Leaf()+"@"+string(id.VM()), m.InRateBps/1e6, m.OutRateBps/1e6, m.State)
	}
	fmt.Println("verdict:", rep)
	return nil
}

func flow(format string, a, b int) dataplane.FlowID {
	return dataplane.FlowID(fmt.Sprintf(format, a, b))
}

func wireBatch(f string, bytes int64) dataplane.Batch {
	pkts := int(bytes / 1448)
	if pkts < 1 {
		pkts = 1
	}
	return dataplane.Batch{Flow: dataplane.FlowID(f), Packets: pkts, Bytes: bytes}
}
