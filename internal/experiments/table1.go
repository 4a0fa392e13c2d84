package experiments

import (
	"fmt"
	"strings"
	"time"

	"perfsight/internal/cluster"
	"perfsight/internal/core"
	"perfsight/internal/diagnosis"
	"perfsight/internal/machine"
	"perfsight/internal/middlebox"
	"perfsight/internal/stream"
)

// Table1Row is one exhaustive single-shortage probe and its outcome.
type Table1Row struct {
	Resource    diagnosis.Resource
	ExpectedLoc diagnosis.DropLocation
	ObservedLoc diagnosis.DropLocation
	Inferred    diagnosis.Resource
	Scope       diagnosis.Scope
	OK          bool
}

// Table1Result rebuilds the paper's rule book (Table 1) the way the paper
// did: "we set up a variety of experiments where VMs contend for different
// resources, and we exhaustively track possible packet loss locations".
type Table1Result struct {
	Rows []Table1Row
}

// AllCorrect reports whether every probe landed on the expected location
// and resource.
func (r *Table1Result) AllCorrect() bool {
	for _, row := range r.Rows {
		if !row.OK {
			return false
		}
	}
	return len(r.Rows) > 0
}

// String renders the rule book table.
func (r *Table1Result) String() string {
	var b strings.Builder
	b.WriteString("Table 1: resource in shortage and symptom rule book\n")
	b.WriteString("resource in shortage   expected location   observed location   inferred             ok\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-21s  %-18s  %-18s  %-20s %v\n",
			row.Resource, row.ExpectedLoc, row.ObservedLoc, row.Inferred, row.OK)
	}
	return b.String()
}

// RunTable1 runs one probe per Table 1 row, each in a fresh lab.
func RunTable1() (*Table1Result, error) {
	res := &Table1Result{}
	type probe struct {
		resource diagnosis.Resource
		loc      diagnosis.DropLocation
		run      func() (*diagnosis.ContentionReport, error)
	}
	probes := []probe{
		{diagnosis.ResourceIncomingBandwidth, diagnosis.LocPNIC, probeIncomingBandwidth},
		{diagnosis.ResourceOutgoingBandwidth, diagnosis.LocBacklogEnqueue, probeOutgoingBandwidth},
		{diagnosis.ResourceCPU, diagnosis.LocTUNAggregated, probeCPUContention},
		{diagnosis.ResourceMemoryBandwidth, diagnosis.LocTUNAggregated, probeMemBandwidth},
		{diagnosis.ResourceMemorySpace, diagnosis.LocPNICDriver, probeMemSpace},
		{diagnosis.ResourceVMBottleneck, diagnosis.LocTUNIndividual, probeVMBottleneck},
		{diagnosis.ResourcePCPUBacklog, diagnosis.LocBacklogEnqueue, probeBacklogContention},
	}
	for _, p := range probes {
		rep, err := p.run()
		if err != nil {
			return nil, fmt.Errorf("table1 %s probe: %w", p.resource, err)
		}
		res.Rows = append(res.Rows, Table1Row{
			Resource:    p.resource,
			ExpectedLoc: p.loc,
			ObservedLoc: rep.TopLocation,
			Inferred:    rep.Inferred,
			Scope:       rep.Scope,
			OK:          rep.TopLocation == p.loc && rep.Inferred == p.resource,
		})
	}
	return res, nil
}

const probeTenant = core.TenantID("t-probe")

// probeLab builds a default machine with n sink VMs receiving streams.
func probeLab(sinkVMs int, vnicBps, ratePerVM float64) (*Lab, error) {
	l := NewLab(time.Millisecond)
	l.DefaultMachine("m0")
	for i := 0; i < sinkVMs; i++ {
		vm := core.VMID(fmt.Sprintf("vm%d", i))
		sink := middlebox.NewSink(core.ElementID(fmt.Sprintf("m0/%s/app", vm)), vnicBps)
		l.C.PlaceVM("m0", vm, 1.0, vnicBps, sink)
		hn := fmt.Sprintf("h%d", i)
		host := l.C.AddHost(hn, 0)
		for j := 0; j < 4; j++ {
			conn := l.C.Connect(flowID(fmt.Sprintf("f%d-%d", i, j)),
				cluster.HostEndpoint(hn), cluster.VMEndpoint("m0", vm), stream.Config{})
			host.AddSource(conn, ratePerVM/4)
		}
	}
	if err := l.BuildAgents(); err != nil {
		return nil, err
	}
	l.C.AssignStack(probeTenant, "m0")
	for i := 0; i < sinkVMs; i++ {
		l.C.AssignVM(probeTenant, "m0", core.VMID(fmt.Sprintf("vm%d", i)))
	}
	return l, nil
}

func probeIncomingBandwidth() (*diagnosis.ContentionReport, error) {
	l, err := probeLab(4, 4e9, 400e6)
	if err != nil {
		return nil, err
	}
	gw := l.C.AddHost("gw", 0)
	for i := 0; i < 4; i++ {
		l.C.RouteFlow(flowID(fmt.Sprintf("flood-%d", i)),
			cluster.HostEndpoint("gw"), cluster.VMEndpoint("m0", core.VMID(fmt.Sprintf("vm%d", i))))
	}
	l.Run(2 * time.Second)
	l.C.AddPostTickFunc(func(now, dt time.Duration) {
		per := 14e9 / 4 / 8 * dt.Seconds() // 14 Gbps into a 10 Gbps NIC
		for i := 0; i < 4; i++ {
			gw.EmitRaw(batch(fmt.Sprintf("flood-%d", i), int64(per), 1448))
		}
	})
	return diagnosis.FindContentionAndBottleneck(l.Ctl, probeTenant, 3*time.Second)
}

func probeOutgoingBandwidth() (*diagnosis.ContentionReport, error) {
	// Sender VMs flooding outward saturate the 10G wire; the NAPI routine
	// head-of-line blocks on the full transmit queue and the backlog drops.
	l := NewLab(time.Millisecond)
	l.DefaultMachine("m0")
	l.C.AddHost("peer", 0)
	for i := 0; i < 6; i++ {
		vm := core.VMID(fmt.Sprintf("vm%d", i))
		f := flowID(fmt.Sprintf("out-%d", i))
		src := middlebox.NewRawSource(core.ElementID(fmt.Sprintf("m0/%s/app", vm)), 10e9, f, 0, 1448, nil)
		l.C.PlaceVM("m0", vm, 1.0, 10e9, src)
		l.C.RouteFlow(f, cluster.VMEndpoint("m0", vm), cluster.HostEndpoint("peer"))
	}
	if err := l.BuildAgents(); err != nil {
		return nil, err
	}
	l.C.AssignStack(probeTenant, "m0")
	for i := 0; i < 6; i++ {
		l.C.AssignVM(probeTenant, "m0", core.VMID(fmt.Sprintf("vm%d", i)))
	}
	l.Run(2 * time.Second)
	srcs := l.C.Machine("m0").VMs()
	_ = srcs
	for i := 0; i < 6; i++ {
		vm := l.C.Machine("m0").VM(core.VMID(fmt.Sprintf("vm%d", i)))
		vm.Apps[0].(*middlebox.RawSource).RateBps = 2.5e9 // 15 Gbps offered
	}
	return diagnosis.FindContentionAndBottleneck(l.Ctl, probeTenant, 3*time.Second)
}

func probeCPUContention() (*diagnosis.ContentionReport, error) {
	l, err := probeLab(2, 1e9, 400e6)
	if err != nil {
		return nil, err
	}
	m := l.C.Machine("m0")
	// Six additional 2-vCPU tenant VMs spin up CPU-intensive workloads,
	// overcommitting the 8 cores.
	for i := 0; i < 6; i++ {
		vm := core.VMID(fmt.Sprintf("vm-hog%d", i))
		l.C.PlaceVM("m0", vm, 2.0, 1e9)
		l.C.AssignVM(probeTenant, "m0", vm)
	}
	if err := l.BuildAgents(); err != nil {
		return nil, err
	}
	l.Run(2 * time.Second)
	for i := 0; i < 6; i++ {
		m.AddHog(&machine.Hog{
			Name: fmt.Sprintf("cpu%d", i), Kind: machine.HogCPU,
			VM: core.VMID(fmt.Sprintf("vm-hog%d", i)), CPUDemandCores: 2.0,
		})
	}
	return diagnosis.FindContentionAndBottleneck(l.Ctl, probeTenant, 3*time.Second)
}

func probeMemBandwidth() (*diagnosis.ContentionReport, error) {
	l, err := probeLab(4, 2e9, 600e6)
	if err != nil {
		return nil, err
	}
	l.Run(2 * time.Second)
	l.C.Machine("m0").AddHog(&machine.Hog{
		Name: "memhog", Kind: machine.HogMem, MemDemandBps: 26e9, CyclesPerByte: 0.33,
	})
	return diagnosis.FindContentionAndBottleneck(l.Ctl, probeTenant, 3*time.Second)
}

func probeMemSpace() (*diagnosis.ContentionReport, error) {
	l, err := probeLab(4, 2e9, 600e6)
	if err != nil {
		return nil, err
	}
	l.Run(2 * time.Second)
	// A leaking task pins nearly all RAM: sk_buff allocations start
	// failing in the driver.
	l.C.Machine("m0").AddHog(&machine.Hog{
		Name: "leak", Kind: machine.HogMemSpace, AllocBytes: 16<<30 - 256<<20,
	})
	return diagnosis.FindContentionAndBottleneck(l.Ctl, probeTenant, 3*time.Second)
}

func probeVMBottleneck() (*diagnosis.ContentionReport, error) {
	l := NewLab(time.Millisecond)
	l.DefaultMachine("m0")
	sink0 := middlebox.NewSink("m0/vm0/app", 1e9)
	l.C.PlaceVM("m0", "vm0", 1.0, 1e9, sink0)
	sink1 := middlebox.NewSink("m0/vm1/app", 1e9)
	l.C.PlaceVM("m0", "vm1", 0.02, 1e9, sink1) // starved allocation
	gw := l.C.AddHost("gw", 0)
	l.C.RouteFlow("f0", cluster.HostEndpoint("gw"), cluster.VMEndpoint("m0", "vm0"))
	l.C.RouteFlow("f1", cluster.HostEndpoint("gw"), cluster.VMEndpoint("m0", "vm1"))
	l.C.AddPostTickFunc(func(now, dt time.Duration) {
		for _, f := range []string{"f0", "f1"} {
			gw.EmitRaw(batch(f, int64(400e6/8*dt.Seconds()), 1448))
		}
	})
	if err := l.BuildAgents(); err != nil {
		return nil, err
	}
	l.C.AssignStack(probeTenant, "m0")
	l.C.AssignVM(probeTenant, "m0", "vm0")
	l.C.AssignVM(probeTenant, "m0", "vm1")
	l.Run(2 * time.Second)
	return diagnosis.FindContentionAndBottleneck(l.Ctl, probeTenant, 3*time.Second)
}

func probeBacklogContention() (*diagnosis.ContentionReport, error) {
	// The Fig 10 scenario: a small-packet flood monopolizes the single hot
	// backlog queue while the NIC stays far from saturation.
	l := NewLab(time.Millisecond)
	cfg := machine.DefaultConfig("m0")
	cfg.Stack.PNICRxBps = 1e9
	cfg.Stack.PNICTxBps = 1e9
	cfg.Stack.BacklogQueues = 1 // unpinned interrupts land on one core
	l.C.AddMachine(cfg)
	l.C.AddHost("peer", 0)
	host := l.C.AddHost("src", 0)

	sink := middlebox.NewSink("m0/vm1/app", 1e9)
	l.C.PlaceVM("m0", "vm1", 1.0, 1e9, sink)
	for j := 0; j < 4; j++ {
		conn := l.C.Connect(flowID(fmt.Sprintf("rx-%d", j)),
			cluster.HostEndpoint("src"), cluster.VMEndpoint("m0", "vm1"), stream.Config{})
		host.AddSource(conn, 125e6)
	}
	flood := middlebox.NewRawSource("m0/vm2/app", 1e9, "smallpkts", 0, 64, nil)
	l.C.PlaceVM("m0", "vm2", 1.0, 1e9, flood)
	l.C.RouteFlow("smallpkts", cluster.VMEndpoint("m0", "vm2"), cluster.HostEndpoint("peer"))

	if err := l.BuildAgents(); err != nil {
		return nil, err
	}
	l.C.AssignStack(probeTenant, "m0")
	l.C.AssignVM(probeTenant, "m0", "vm1")
	l.C.AssignVM(probeTenant, "m0", "vm2")
	l.Run(2 * time.Second)
	flood.RateBps = 400e6 // ~780 Kpps of 64 B packets
	return diagnosis.FindContentionAndBottleneck(l.Ctl, probeTenant, 3*time.Second)
}
