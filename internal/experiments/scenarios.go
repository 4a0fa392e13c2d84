package experiments

import (
	"fmt"
	"time"

	"perfsight/internal/cluster"
	"perfsight/internal/core"
	"perfsight/internal/dataplane"
	"perfsight/internal/diagnosis"
	"perfsight/internal/machine"
	"perfsight/internal/middlebox"
	"perfsight/internal/stream"
)

// The scenario catalogue. A scenario is defined once, here: the figure
// experiments, the Table 1 probes, the perfsight -scenario demos and the
// examples pass parameters (rates, vNIC speeds, machine configs, tenants)
// and the primitives below own VM, host and flow naming. Every builder
// that returns a lab has built its agents; the caller closes the lab.

// MemHog is a memory-intensive task streaming copies at bps; 0.33
// cycles/byte is a rep-movsb copy loop.
func MemHog(name string, bps float64) *machine.Hog {
	return &machine.Hog{Name: name, Kind: machine.HogMem, MemDemandBps: bps, CyclesPerByte: 0.33}
}

// AddSinkFleet places n sink VMs on machine mid, each fed ratePerVM by its
// own external host over four streams, and assigns them and mid's stack to
// the tenant. VMs vm<i>, hosts h<i> and flows f<i>-<j> are numbered on
// from the lab's earlier fleets, so fleets on two machines do not collide.
func (l *Lab) AddSinkFleet(mid core.MachineID, tenant core.TenantID, n int, vnicBps, ratePerVM float64) []*middlebox.Sink {
	l.C.AssignStack(tenant, mid)
	sinks := make([]*middlebox.Sink, n)
	for k := range sinks {
		i := l.fleetVMs
		l.fleetVMs++
		vm := core.VMID(fmt.Sprintf("vm%d", i))
		sinks[k] = middlebox.NewSink(core.ElementID(fmt.Sprintf("%s/%s/app", mid, vm)), vnicBps)
		l.C.PlaceVM(mid, vm, 1.0, vnicBps, sinks[k])
		hn := fmt.Sprintf("h%d", i)
		host := l.C.AddHost(hn, 0)
		for j := 0; j < 4; j++ {
			conn := l.C.Connect(flowID(fmt.Sprintf("f%d-%d", i, j)),
				cluster.HostEndpoint(hn), cluster.VMEndpoint(mid, vm), stream.Config{})
			host.AddSource(conn, ratePerVM/4)
		}
		l.C.AssignVM(tenant, mid, vm)
	}
	return sinks
}

// SinkFleet is the network-intensive tenant of Fig 11 and of most Table 1
// rows: one default machine m0 whose VMs only receive.
type SinkFleet struct {
	*Lab
	M     *machine.Machine
	Sinks []*middlebox.Sink
}

// NewSinkFleet builds a 1 ms lab with AddSinkFleet on a default machine m0.
func NewSinkFleet(tenant core.TenantID, n int, vnicBps, ratePerVM float64) (*SinkFleet, error) {
	l := NewLab(time.Millisecond)
	f := &SinkFleet{Lab: l, M: l.DefaultMachine("m0")}
	f.Sinks = l.AddSinkFleet("m0", tenant, n, vnicBps, ratePerVM)
	return f, l.finish()
}

// ProxyVM names and sizes one forwarder VM between a client and a server
// host: flows <Flows>-in<j> run from host client<Hosts> to the VM, and
// <Flows>-out from the VM to host server<Hosts>.
type ProxyVM struct {
	Machine core.MachineID
	VM      core.VMID
	Flows   string
	Hosts   string
	Cost    middlebox.ForwardConfig
	// Inflows client streams offer RateBps each; with none (a scale-out
	// instance that flows are rerouted to) no client host is made.
	Inflows int
	RateBps float64
}

// AddProxyVM places p with a 1 Gbps vNIC and returns its output stream.
// The server host is shared when an earlier proxy already made it.
func (l *Lab) AddProxyVM(p ProxyVM) *stream.Conn {
	server := "server" + p.Hosts
	if l.C.Host(server) == nil {
		l.C.AddHost(server, 0)
	}
	out := l.C.Connect(flowID(p.Flows+"-out"),
		cluster.VMEndpoint(p.Machine, p.VM), cluster.HostEndpoint(server), stream.Config{})
	app := middlebox.NewForwarder(core.ElementID(fmt.Sprintf("%s/%s/app", p.Machine, p.VM)), 1e9,
		p.Cost, middlebox.ConnOutput{C: out})
	l.C.PlaceVM(p.Machine, p.VM, 1.0, 1e9, app)
	if p.Inflows > 0 {
		client := l.C.AddHost("client"+p.Hosts, 0)
		for j := 0; j < p.Inflows; j++ {
			in := l.C.Connect(flowID(fmt.Sprintf("%s-in%d", p.Flows, j)),
				cluster.HostEndpoint("client"+p.Hosts), cluster.VMEndpoint(p.Machine, p.VM), stream.Config{})
			client.AddSource(in, p.RateBps)
		}
	}
	return out
}

// BacklogFlood is the Fig 10 pair on one machine m0: vm1 receives 500 Mbps
// over four streams, vm2 holds a 64-byte-packet source that is silent
// until StartFlood.
type BacklogFlood struct {
	*Lab
	M     *machine.Machine
	Sink  *middlebox.Sink
	Flood *middlebox.RawSource
}

// NewBacklogFlood builds the pair. The 1 Gbps NIC and the single hot
// backlog queue (unpinned interrupts land on one core) are the scenario
// and are set here; cfg, a config for machine m0, carries the caller's
// stack costs and ablation switches. fb receives the flood's delivery
// feedback; an empty tenant assigns nothing.
func NewBacklogFlood(cfg machine.Config, tenant core.TenantID, fb dataplane.Feedback) (*BacklogFlood, error) {
	cfg.Stack.PNICRxBps = 1e9
	cfg.Stack.PNICTxBps = 1e9
	cfg.Stack.BacklogQueues = 1
	l := NewLab(time.Millisecond)
	b := &BacklogFlood{Lab: l, M: l.C.AddMachine(cfg)}

	b.Sink = middlebox.NewSink("m0/vm1/app", 1e9)
	l.C.PlaceVM("m0", "vm1", 1.0, 1e9, b.Sink)
	src := l.C.AddHost("src", 0)
	for j := 0; j < 4; j++ {
		conn := l.C.Connect(flowID(fmt.Sprintf("rx-%d", j)),
			cluster.HostEndpoint("src"), cluster.VMEndpoint("m0", "vm1"), stream.Config{})
		src.AddSource(conn, 125e6)
	}
	l.C.AddHost("peer", 0)
	b.Flood = middlebox.NewRawSource("m0/vm2/app", 1e9, "smallpkts", 0, 64, fb)
	l.C.PlaceVM("m0", "vm2", 1.0, 1e9, b.Flood)
	l.C.RouteFlow("smallpkts", cluster.VMEndpoint("m0", "vm2"), cluster.HostEndpoint("peer"))

	if tenant != "" {
		l.C.AssignStack(tenant, "m0")
		l.C.AssignVM(tenant, "m0", "vm1")
		l.C.AssignVM(tenant, "m0", "vm2")
	}
	return b, l.finish()
}

// StartFlood makes vm2 send "as fast as it can": ~780 Kpps of 64 B packets.
func (b *BacklogFlood) StartFlood() { b.Flood.RateBps = 400e6 }

// NewBottleneck builds Table 1's last row: vm0 and vm1 on m0 each receive
// a raw 400 Mbps from a gateway host, and vm1 has 2% of a core.
func NewBottleneck(tenant core.TenantID) (*Lab, error) {
	l := NewLab(time.Millisecond)
	l.DefaultMachine("m0")
	l.C.PlaceVM("m0", "vm0", 1.0, 1e9, middlebox.NewSink("m0/vm0/app", 1e9))
	l.C.PlaceVM("m0", "vm1", 0.02, 1e9, middlebox.NewSink("m0/vm1/app", 1e9)) // starved allocation
	gw := l.C.AddHost("gw", 0)
	l.C.RouteFlow("f0", cluster.HostEndpoint("gw"), cluster.VMEndpoint("m0", "vm0"))
	l.C.RouteFlow("f1", cluster.HostEndpoint("gw"), cluster.VMEndpoint("m0", "vm1"))
	l.C.AddPostTickFunc(func(now, dt time.Duration) {
		for _, f := range []string{"f0", "f1"} {
			gw.EmitRaw(batch(f, int64(400e6/8*dt.Seconds()), 1448))
		}
	})
	l.C.AssignStack(tenant, "m0")
	l.C.AssignVM(tenant, "m0", "vm0")
	l.C.AssignVM(tenant, "m0", "vm1")
	return l, l.finish()
}

// NewChain3 builds client -> LB -> proxy -> server on m0 with 100 Mbps
// vNICs, the client POSTing as fast as it can into a server that is
// expensive per byte: the smallest chain in which an overloaded tail
// WriteBlocks everything upstream of it.
func NewChain3(tenant core.TenantID) (*Lab, error) {
	const C = 100e6
	l := NewLab(time.Millisecond)
	l.C.RmemPerConn = 212992
	l.DefaultMachine("m0")
	l.C.PlaceVM("m0", "vm-srv", 1.0, C, middlebox.NewServer("m0/vm-srv/app", C, 600))
	toSrv := l.C.Connect("px-srv", cluster.VMEndpoint("m0", "vm-px"), cluster.VMEndpoint("m0", "vm-srv"), stream.Config{})
	l.C.PlaceVM("m0", "vm-px", 1.0, C, middlebox.NewProxy("m0/vm-px/app", C, middlebox.ConnOutput{C: toSrv}))
	toPx := l.C.Connect("lb-px", cluster.VMEndpoint("m0", "vm-lb"), cluster.VMEndpoint("m0", "vm-px"), stream.Config{})
	l.C.PlaceVM("m0", "vm-lb", 1.0, C, middlebox.NewLoadBalancer("m0/vm-lb/app", C, middlebox.ConnOutput{C: toPx}))
	client := l.C.AddHost("client", 0)
	in := l.C.Connect("cl-lb", cluster.HostEndpoint("client"), cluster.VMEndpoint("m0", "vm-lb"), stream.Config{})
	client.AddSource(in, 0)
	l.C.AssignStack(tenant, "m0")
	for _, vm := range []core.VMID{"vm-lb", "vm-px", "vm-srv"} {
		l.C.AssignVM(tenant, "m0", vm)
	}
	l.C.AddChain(tenant, "m0/vm-lb/app", "m0/vm-px/app", "m0/vm-srv/app")
	return l, l.finish()
}

// Fig12Chain is client -> LB -> {CF1, CF2} -> {S1, S2} on m0, both
// content filters logging to a shared NFS server.
type Fig12Chain struct {
	*Lab
	NFS *middlebox.Server
}

// Fig12Elements lists the chain's middleboxes in the paper's table order.
var Fig12Elements = []core.ElementID{
	"m0/vm-lb/app", "m0/vm-cf1/app", "m0/vm-cf2/app",
	"m0/vm-nfs/app", "m0/vm-s1/app", "m0/vm-s2/app",
}

// NewFig12Chain deploys the chain with 100 Mbps vNICs, as in the paper.
// serverCPB prices the HTTP servers; clientRate 0 offers as much as the
// chain takes.
func NewFig12Chain(tenant core.TenantID, serverCPB, clientRate float64) (*Fig12Chain, error) {
	const C = 100e6
	l := NewLab(time.Millisecond)
	l.C.RmemPerConn = 212992
	l.DefaultMachine("m0")
	ch := &Fig12Chain{Lab: l}

	for i := 1; i <= 2; i++ {
		vm := core.VMID(fmt.Sprintf("vm-s%d", i))
		l.C.PlaceVM("m0", vm, 1.0, C, middlebox.NewServer(core.ElementID(fmt.Sprintf("m0/%s/app", vm)), C, serverCPB))
	}
	ch.NFS = middlebox.NewNFSServer("m0/vm-nfs/app", C, 40e6)
	l.C.PlaceVM("m0", "vm-nfs", 1.0, C, ch.NFS)

	// Content filters, each forwarding to its server and logging 15% to NFS.
	for i := 1; i <= 2; i++ {
		vm := core.VMID(fmt.Sprintf("vm-cf%d", i))
		toSrv := l.C.Connect(flowID(fmt.Sprintf("cf%d-s", i)),
			cluster.VMEndpoint("m0", vm), cluster.VMEndpoint("m0", core.VMID(fmt.Sprintf("vm-s%d", i))), stream.Config{})
		toNFS := l.C.Connect(flowID(fmt.Sprintf("cf%d-nfs", i)),
			cluster.VMEndpoint("m0", vm), cluster.VMEndpoint("m0", "vm-nfs"), stream.Config{})
		cf := middlebox.NewContentFilter(core.ElementID(fmt.Sprintf("m0/%s/app", vm)), C, 0.15, middlebox.ConnOutput{C: toSrv})
		cf.SetLogOutput(middlebox.ConnOutput{C: toNFS})
		l.C.PlaceVM("m0", vm, 1.0, C, cf)
	}

	toCF1 := l.C.Connect("lb-cf1", cluster.VMEndpoint("m0", "vm-lb"), cluster.VMEndpoint("m0", "vm-cf1"), stream.Config{})
	toCF2 := l.C.Connect("lb-cf2", cluster.VMEndpoint("m0", "vm-lb"), cluster.VMEndpoint("m0", "vm-cf2"), stream.Config{})
	lb := middlebox.NewLoadBalancer("m0/vm-lb/app", C, middlebox.ConnOutput{C: toCF1}, middlebox.ConnOutput{C: toCF2})
	l.C.PlaceVM("m0", "vm-lb", 1.0, C, lb)

	client := l.C.AddHost("client", 0)
	in := l.C.Connect("client-lb", cluster.HostEndpoint("client"), cluster.VMEndpoint("m0", "vm-lb"), stream.Config{})
	client.AddSource(in, clientRate)

	l.C.AssignStack(tenant, "m0")
	for _, vm := range []core.VMID{"vm-lb", "vm-cf1", "vm-cf2", "vm-s1", "vm-s2", "vm-nfs"} {
		l.C.AssignVM(tenant, "m0", vm)
	}
	l.C.AddChain(tenant, "m0/vm-lb/app", "m0/vm-cf1/app", "m0/vm-s1/app")
	l.C.AddChain(tenant, "m0/vm-lb/app", "m0/vm-cf2/app", "m0/vm-s2/app")
	l.C.AddChain(tenant, "m0/vm-cf1/app", "m0/vm-nfs/app")
	l.C.AddChain(tenant, "m0/vm-cf2/app", "m0/vm-nfs/app")
	return ch, l.finish()
}

// The Fig 13 tenants: each sees its own proxy, the cloud operator sees
// every VM on the shared machine.
const (
	Fig13Tenant1  = core.TenantID("tenant1")
	Fig13Tenant2  = core.TenantID("tenant2")
	Fig13Operator = core.TenantID("operator")
)

// fig13SlowProxy processes ~200 Mbps on one vCPU: 2.5e9 cycles/s at ~95
// cycles/byte once per-packet costs are added.
var fig13SlowProxy = middlebox.ForwardConfig{CyclesPerByte: 88, CyclesPerPacket: 3000}

// Fig13 is the §7.3 machine: two tenants' proxies share m-shared, tenant 1
// offering 180 Mbps through a fast proxy, tenant 2 offering 360 Mbps
// through one that manages ~200; m-spare is empty until ScaleOut.
type Fig13 struct {
	*Lab
	M *machine.Machine // m-shared
	// The proxies' output streams; out2b is the scale-out instance's.
	out1, out2, out2b *stream.Conn
}

// Delivered returns the bytes each tenant's server has received so far.
func (s *Fig13) Delivered() (tenant1, tenant2 int64) {
	tenant2 = s.out2.DeliveredBytes()
	if s.out2b != nil {
		tenant2 += s.out2b.DeliveredBytes()
	}
	return s.out1.DeliveredBytes(), tenant2
}

// NewFig13 builds the two-tenant machine.
func NewFig13() (*Fig13, error) {
	l := NewLab(time.Millisecond)
	l.C.RmemPerConn = 212992
	shared := machine.DefaultConfig("m-shared")
	shared.Stack.VNICRing = 256
	shared.Stack.SocketRxBytes = 512 << 10 // era-appropriate socket pools
	s := &Fig13{Lab: l, M: l.C.AddMachine(shared)}
	l.DefaultMachine("m-spare")

	s.out1 = l.AddProxyVM(ProxyVM{Machine: "m-shared", VM: "vm-p1", Flows: "t1", Hosts: "1",
		Cost: middlebox.ForwardConfig{CyclesPerByte: 10, CyclesPerPacket: 2500}, Inflows: 6, RateBps: 30e6})
	s.out2 = l.AddProxyVM(ProxyVM{Machine: "m-shared", VM: "vm-p2", Flows: "t2", Hosts: "2",
		Cost: fig13SlowProxy, Inflows: 8, RateBps: 45e6})

	for _, tid := range []core.TenantID{Fig13Tenant1, Fig13Tenant2, Fig13Operator} {
		l.C.AssignStack(tid, "m-shared")
	}
	l.C.AssignVM(Fig13Tenant1, "m-shared", "vm-p1")
	l.C.AssignVM(Fig13Tenant2, "m-shared", "vm-p2")
	l.C.AssignVM(Fig13Operator, "m-shared", "vm-p1")
	l.C.AssignVM(Fig13Operator, "m-shared", "vm-p2")
	l.C.AddChain(Fig13Tenant1, "m-shared/vm-p1/app")
	l.C.AddChain(Fig13Tenant2, "m-shared/vm-p2/app")
	return s, l.finish()
}

// ScaleOut places a second tenant-2 proxy, vm-p2b, on m-spare and
// reroutes half of tenant 2's flows to it.
func (s *Fig13) ScaleOut() error {
	s.out2b = s.AddProxyVM(ProxyVM{Machine: "m-spare", VM: "vm-p2b", Flows: "t2b", Hosts: "2", Cost: fig13SlowProxy})
	if err := s.RefreshAgent("m-spare"); err != nil {
		return err
	}
	s.C.AssignVM(Fig13Tenant2, "m-spare", "vm-p2b")
	for j := 4; j < 8; j++ {
		s.C.RerouteFlow(flowID(fmt.Sprintf("t2-in%d", j)),
			cluster.HostEndpoint("client2"), cluster.VMEndpoint("m-spare", "vm-p2b"))
	}
	return nil
}

// Fault is one row of the fault table: a deployment and the single fault
// injected into it, with the ground truth a diagnosis is scored against.
// A stack fault names the resource in shortage and where Algorithm 1 must
// find the loss (Table 1); a chain fault has no drop location and names
// the middleboxes Algorithm 2 must isolate, none meaning the traffic
// source is underloaded (Fig 12).
type Fault struct {
	Name, About string
	Resource    diagnosis.Resource
	Location    diagnosis.DropLocation
	RootCauses  []core.ElementID
	// Build deploys the healthy scenario for the tenant, warmed up, and
	// returns it with the function that injects the fault and lets it
	// develop; Diagnose is the usual way to run the two.
	Build func(tenant core.TenantID) (l *Lab, inject func(), err error)
}

// Diagnose builds the row's deployment, injects its fault and runs the
// algorithm its ground truth is stated for: Algorithm 1 over the 3 s after
// the injection for a stack fault, Algorithm 2 over 2 s for a chain fault.
// The other report is nil.
func (f Fault) Diagnose(tenant core.TenantID) (*diagnosis.ContentionReport, *diagnosis.RootCauseReport, error) {
	l, inject, err := f.Build(tenant)
	if err != nil {
		return nil, nil, err
	}
	defer l.Close()
	inject()
	if f.Location == diagnosis.LocNone {
		rep, err := diagnosis.LocateRootCause(l.Ctl, tenant, 2*time.Second)
		return nil, rep, err
	}
	rep, err := diagnosis.FindContentionAndBottleneck(l.Ctl, tenant, 3*time.Second)
	return rep, nil, err
}

// FaultByName returns the fault table row with that name.
func FaultByName(name string) (Fault, bool) {
	for _, f := range Faults {
		if f.Name == name {
			return f, true
		}
	}
	return Fault{}, false
}

// warmed finishes a row's Build: the deployment, unless building it
// failed, d into a healthy run and paired with its fault.
func warmed(l *Lab, err error, d time.Duration, inject func()) (*Lab, func(), error) {
	if err != nil {
		return nil, nil, err
	}
	l.Run(d)
	return l, inject, nil
}

// fig12Fault is a Build on the Fig 12 chain, warm into a healthy run.
func fig12Fault(serverCPB, clientRate float64, warm time.Duration, inject func(*Fig12Chain)) func(core.TenantID) (*Lab, func(), error) {
	return func(t core.TenantID) (*Lab, func(), error) {
		ch, err := NewFig12Chain(t, serverCPB, clientRate)
		return warmed(ch.Lab, err, warm, func() { inject(ch) })
	}
}

// asBuilt is the fault of a row whose deployment is broken from the start.
func asBuilt(*Fig12Chain) {}

// Faults is the fault table: Table 1's rows in the paper's order, then the
// chain faults. RunTable1 and RunFig12 run its rows, perfsight -scenario
// lists and runs them, and it is the vocabulary a seeded accuracy campaign
// draws injected ground truth from.
var Faults = []Fault{
	{
		Name: "rxbw", About: "an inbound flood past the 10G NIC's line rate (Table 1)",
		Resource: diagnosis.ResourceIncomingBandwidth, Location: diagnosis.LocPNIC,
		Build: func(t core.TenantID) (*Lab, func(), error) {
			f, err := NewSinkFleet(t, 4, 4e9, 400e6)
			if err != nil {
				return nil, nil, err
			}
			gw := f.C.AddHost("gw", 0)
			for i := 0; i < 4; i++ {
				f.C.RouteFlow(flowID(fmt.Sprintf("flood-%d", i)),
					cluster.HostEndpoint("gw"), cluster.VMEndpoint("m0", core.VMID(fmt.Sprintf("vm%d", i))))
			}
			return warmed(f.Lab, nil, 2*time.Second, func() {
				f.C.AddPostTickFunc(func(now, dt time.Duration) {
					per := 14e9 / 4 / 8 * dt.Seconds() // 14 Gbps into a 10 Gbps NIC
					for i := 0; i < 4; i++ {
						gw.EmitRaw(batch(fmt.Sprintf("flood-%d", i), int64(per), 1448))
					}
				})
			})
		},
	},
	{
		// Sender VMs flooding outward saturate the 10G wire; the NAPI routine
		// head-of-line blocks on the full transmit queue and the backlog drops.
		Name: "txbw", About: "sender VMs offering 15 Gbps to the 10G wire (Table 1)",
		Resource: diagnosis.ResourceOutgoingBandwidth, Location: diagnosis.LocBacklogEnqueue,
		Build: func(t core.TenantID) (*Lab, func(), error) {
			l := NewLab(time.Millisecond)
			l.DefaultMachine("m0")
			l.C.AddHost("peer", 0)
			l.C.AssignStack(t, "m0")
			srcs := make([]*middlebox.RawSource, 6)
			for i := range srcs {
				vm := core.VMID(fmt.Sprintf("vm%d", i))
				f := flowID(fmt.Sprintf("out-%d", i))
				srcs[i] = middlebox.NewRawSource(core.ElementID(fmt.Sprintf("m0/%s/app", vm)), 10e9, f, 0, 1448, nil)
				l.C.PlaceVM("m0", vm, 1.0, 10e9, srcs[i])
				l.C.RouteFlow(f, cluster.VMEndpoint("m0", vm), cluster.HostEndpoint("peer"))
				l.C.AssignVM(t, "m0", vm)
			}
			return warmed(l, l.finish(), 2*time.Second, func() {
				for _, s := range srcs {
					s.RateBps = 2.5e9
				}
			})
		},
	},
	{
		Name: "cpu", About: "CPU-intensive tenant VMs overcommitting the cores (Table 1)",
		Resource: diagnosis.ResourceCPU, Location: diagnosis.LocTUNAggregated,
		Build: func(t core.TenantID) (*Lab, func(), error) {
			f, err := NewSinkFleet(t, 2, 1e9, 400e6)
			if err != nil {
				return nil, nil, err
			}
			// Six more 2-vCPU tenant VMs, idle until the fault.
			for i := 0; i < 6; i++ {
				vm := core.VMID(fmt.Sprintf("vm-hog%d", i))
				f.C.PlaceVM("m0", vm, 2.0, 1e9)
				f.C.AssignVM(t, "m0", vm)
			}
			return warmed(f.Lab, f.finish(), 2*time.Second, func() {
				for i := 0; i < 6; i++ {
					f.M.AddHog(&machine.Hog{
						Name: fmt.Sprintf("cpu%d", i), Kind: machine.HogCPU,
						VM: core.VMID(fmt.Sprintf("vm-hog%d", i)), CPUDemandCores: 2.0,
					})
				}
			})
		},
	},
	{
		Name: "membw", About: "memory-bandwidth contention across VMs (Fig 11)",
		Resource: diagnosis.ResourceMemoryBandwidth, Location: diagnosis.LocTUNAggregated,
		Build: func(t core.TenantID) (*Lab, func(), error) {
			f, err := NewSinkFleet(t, 4, 2e9, 600e6)
			return warmed(f.Lab, err, 2*time.Second, func() { f.M.AddHog(MemHog("memhog", 26e9)) })
		},
	},
	{
		// A leaking task pins nearly all RAM: sk_buff allocations start
		// failing in the driver.
		Name: "memspace", About: "a leaking host task pinning nearly all RAM (Table 1)",
		Resource: diagnosis.ResourceMemorySpace, Location: diagnosis.LocPNICDriver,
		Build: func(t core.TenantID) (*Lab, func(), error) {
			f, err := NewSinkFleet(t, 4, 2e9, 600e6)
			return warmed(f.Lab, err, 2*time.Second, func() {
				f.M.AddHog(&machine.Hog{Name: "leak", Kind: machine.HogMemSpace, AllocBytes: 16<<30 - 256<<20})
			})
		},
	},
	{
		Name: "bottleneck", About: "a single under-provisioned VM (Table 1, last row)",
		Resource: diagnosis.ResourceVMBottleneck, Location: diagnosis.LocTUNIndividual,
		Build: func(t core.TenantID) (*Lab, func(), error) {
			l, err := NewBottleneck(t)
			return warmed(l, err, 2*time.Second, func() {})
		},
	},
	{
		Name: "backlog", About: "pCPU backlog contention from a small-packet flood (Fig 10)",
		Resource: diagnosis.ResourcePCPUBacklog, Location: diagnosis.LocBacklogEnqueue,
		Build: func(t core.TenantID) (*Lab, func(), error) {
			b, err := NewBacklogFlood(machine.DefaultConfig("m0"), t, nil)
			return warmed(b.Lab, err, 2*time.Second, b.StartFlood)
		},
	},
	{
		Name: "chain", About: "root-cause middlebox in a chain under propagation (Fig 12)",
		RootCauses: []core.ElementID{"m0/vm-srv/app"},
		Build: func(t core.TenantID) (*Lab, func(), error) {
			l, err := NewChain3(t)
			return warmed(l, err, 3*time.Second, func() {})
		},
	},
	{
		// The client POSTs as fast as possible; the servers are expensive
		// per byte and saturate well below the vNIC rate.
		Name: string(Fig12OverloadedServer), About: "Fig 12(b): HTTP servers too slow for the offered load",
		RootCauses: []core.ElementID{"m0/vm-s1/app", "m0/vm-s2/app"},
		Build:      fig12Fault(600, 0, 4*time.Second, asBuilt),
	},
	{
		Name: string(Fig12UnderloadedClient), About: "Fig 12(c): a slow client leaves the whole chain ReadBlocked",
		Build: fig12Fault(30, 4e6, 4*time.Second, asBuilt),
	},
	{
		// The leak must push the NFS server's capacity below the content
		// filters' aggregate log rate, and the NFS guest's socket pool must
		// fill, before the filters' log writes block and the stall spreads.
		Name: string(Fig12ProblematicNFS), About: "Fig 12(d): a memory leak in the shared NFS log server",
		RootCauses: []core.ElementID{"m0/vm-nfs/app"},
		Build: fig12Fault(30, 70e6, 3*time.Second, func(ch *Fig12Chain) {
			ch.NFS.InjectLeak(ch.C.Now(), 50)
			ch.Run(10 * time.Second)
		}),
	},
}
