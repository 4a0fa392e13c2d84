package experiments

import (
	"fmt"
	"strings"
	"time"

	"perfsight/internal/cluster"
	"perfsight/internal/controller"
	"perfsight/internal/core"
	"perfsight/internal/diagnosis"
	"perfsight/internal/machine"
	"perfsight/internal/middlebox"
	"perfsight/internal/stream"
)

// Fig8Phase is one injected performance problem and its diagnosis.
type Fig8Phase struct {
	Name        string
	Start, End  time.Duration
	ExpectedLoc diagnosis.DropLocation
	ObservedLoc diagnosis.DropLocation
	Inferred    diagnosis.Resource
	Scope       diagnosis.Scope
	Evidence    diagnosis.Evidence
	OK          bool
}

// Fig8Sample is one per-second point of the Figure 8 timeline.
type Fig8Sample struct {
	T            float64 // seconds
	MboxMbps     float64 // average middlebox flow throughput
	PNICDrops    float64 // drops this second, by location
	BacklogDrops float64
	TUNDrops     float64
	MboxTUNDrops float64 // drops at the middlebox VMs' own TUNs
}

// Fig8Result reproduces Figure 8: throughput of flows through two
// middlebox VMs while five different performance problems are injected in
// 10-second phases, with PerfSight locating the drops each time.
type Fig8Result struct {
	Samples []Fig8Sample
	Phases  []Fig8Phase
}

// AllPhasesCorrect reports whether every phase was diagnosed at the
// expected drop location.
func (r *Fig8Result) AllPhasesCorrect() bool {
	for _, p := range r.Phases {
		if !p.OK {
			return false
		}
	}
	return len(r.Phases) > 0
}

// String renders the timeline and the per-phase diagnosis table.
func (r *Fig8Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 8: drop locations under injected performance problems\n")
	b.WriteString("t(s)  mbox(Mbps)  pNIC  backlog  TUN  mboxTUN\n")
	for _, s := range r.Samples {
		fmt.Fprintf(&b, "%4.0f  %10.0f  %4.0f  %7.0f  %4.0f  %7.0f\n",
			s.T, s.MboxMbps, s.PNICDrops, s.BacklogDrops, s.TUNDrops, s.MboxTUNDrops)
	}
	b.WriteString("\nphase                 expected location   observed location   inferred resource   ok\n")
	for _, p := range r.Phases {
		fmt.Fprintf(&b, "%-20s  %-18s  %-18s  %-18s  %v\n",
			p.Name, p.ExpectedLoc, p.ObservedLoc, p.Inferred, p.OK)
	}
	return b.String()
}

// Fig8Config tunes the experiment.
type Fig8Config struct {
	Tick       time.Duration
	PhaseLen   time.Duration
	QuietLen   time.Duration
	TenantVMs  int
	RxFloodBps float64
	TxFloodBps float64 // per tenant VM
}

// DefaultFig8Config mirrors the paper: 8 VMs (2 middlebox + 6 tenant) on
// one machine, 10-second fault phases.
func DefaultFig8Config() Fig8Config {
	return Fig8Config{
		Tick:       time.Millisecond,
		PhaseLen:   10 * time.Second,
		QuietLen:   10 * time.Second,
		TenantVMs:  6,
		RxFloodBps: 14e9,
		TxFloodBps: 4e9,
	}
}

// thinLB is the Fig 8 middlebox: a load balancer that forwards cheaply.
var thinLB = middlebox.ForwardConfig{CyclesPerByte: 8, CyclesPerPacket: 2000}

// RunFig8 executes the functional-validation timeline.
func RunFig8(cfg Fig8Config) (*Fig8Result, error) {
	l := NewLab(cfg.Tick)
	l.C.RmemPerConn = 212992 // Linux 3.2 default rmem, as on the testbed
	mcfg := machine.DefaultConfig("m0")
	mcfg.Stack.VNICRing = 256 // virtio default ring of the era
	m := l.C.AddMachine(mcfg)
	const tid = core.TenantID("t-mbox")

	// Two middlebox VMs running load balancers, each fed by a handful of
	// long-lived client connections (the aggregate in-flight of several
	// flows is what keeps the TUN loaded, as on the paper's testbed).
	// Offered load matches the paper's ~420 Mbps per-middlebox scale, well
	// below the thin LB's capacity: the healthy baseline is clean, and
	// faults push the stack below the offered load.
	var outs []*stream.Conn
	for i := 0; i < 2; i++ {
		outs = append(outs, l.AddProxyVM(ProxyVM{
			Machine: "m0", VM: core.VMID(fmt.Sprintf("vm-mb%d", i)),
			Flows: fmt.Sprintf("mb%d", i), Hosts: fmt.Sprint(i),
			Cost: thinLB, Inflows: 10, RateBps: 42e6,
		}))
	}

	// Tenant VMs: sinks plus (initially silent) flood sources.
	gw := l.C.AddHost("gw", 0)
	l.C.AddHost("txsink", 0)
	var floods []*middlebox.RawSource
	for i := 0; i < cfg.TenantVMs; i++ {
		vm := core.VMID(fmt.Sprintf("vm-t%d", i))
		sink := middlebox.NewSink(core.ElementID(fmt.Sprintf("m0/%s/app", vm)), 4e9)
		txFlow := flowID(fmt.Sprintf("txflood-%d", i))
		flood := middlebox.NewRawSource(core.ElementID(fmt.Sprintf("m0/%s/flood", vm)), 4e9, txFlow, 0, 1448, nil)
		l.C.PlaceVM("m0", vm, 1.0, 4e9, sink, flood)
		l.C.RouteFlow(flowID(fmt.Sprintf("rxflood-%d", i)), cluster.HostEndpoint("gw"), cluster.VMEndpoint("m0", vm))
		l.C.RouteFlow(txFlow, cluster.VMEndpoint("m0", vm), cluster.HostEndpoint("txsink"))
		floods = append(floods, flood)
	}

	if err := l.BuildAgents(); err != nil {
		return nil, err
	}
	defer l.Close()
	l.C.AssignStack(tid, "m0")
	for _, vm := range m.VMs() {
		l.C.AssignVM(tid, "m0", vm)
	}

	// Fault injectors driven by virtual time.
	var rxFloodOn bool
	l.C.AddPostTickFunc(func(now, dt time.Duration) {
		if !rxFloodOn {
			return
		}
		per := cfg.RxFloodBps / float64(cfg.TenantVMs) / 8 * dt.Seconds()
		for i := 0; i < cfg.TenantVMs; i++ {
			gw.EmitRaw(batch(fmt.Sprintf("rxflood-%d", i), int64(per), 1448))
		}
	})

	res := &Fig8Result{}
	var prevDelivered int64
	pnic := m.Stack.PNic

	var prevPNIC, prevBacklog, prevTUN, prevMboxTUN uint64
	tunDrops := func() (all, mbox uint64) {
		for _, id := range m.VMs() {
			vm := m.VM(id)
			if vm == nil {
				continue
			}
			d := vm.Stack.Tun.ES.Drop.Packets.Load()
			all += d
			if strings.HasPrefix(string(id), "vm-mb") {
				mbox += d
			}
		}
		return all, mbox
	}

	sampleSecond := func() {
		l.Run(time.Second)
		var delivered int64
		for _, out := range outs {
			delivered += out.DeliveredBytes()
		}
		curPNIC := pnic.ES.Drop.Packets.Load()
		curBacklog := m.Stack.Backlogs.TotalDrops()
		curTUN, curMboxTUN := tunDrops()
		res.Samples = append(res.Samples, Fig8Sample{
			T:            l.C.Now().Seconds(),
			MboxMbps:     float64(delivered-prevDelivered) * 8 / 1e6 / 2,
			PNICDrops:    float64(curPNIC - prevPNIC),
			BacklogDrops: float64(curBacklog - prevBacklog),
			TUNDrops:     float64(curTUN - prevTUN),
			MboxTUNDrops: float64(curMboxTUN - prevMboxTUN),
		})
		prevDelivered = delivered
		prevPNIC, prevBacklog, prevTUN, prevMboxTUN = curPNIC, curBacklog, curTUN, curMboxTUN
	}

	// diagnose samples the stack over the middle of the current phase via
	// the real agent/controller path and runs Algorithm 1.
	stackIDs := l.Ctl.TenantElements(tid, func(_ core.ElementID, info core.ElementInfo) bool {
		return info.Kind.InVirtualizationStack() || info.Kind == core.KindUnknown
	})
	diagnose := func(secondsIntoPhase int) *diagnosis.ContentionReport {
		prev, _ := l.Ctl.Sample(tid, stackIDs)
		for i := 0; i < secondsIntoPhase; i++ {
			sampleSecond()
		}
		cur, _ := l.Ctl.Sample(tid, stackIDs)
		ivs := make(map[core.ElementID]controller.Interval, len(prev))
		for id, p := range prev {
			if c, ok := cur[id]; ok {
				ivs[id] = controller.Interval{Prev: p, Cur: c}
			}
		}
		return diagnosis.AnalyzeStackIntervals(ivs)
	}

	runPhase := func(name string, expected diagnosis.DropLocation, on, off func()) {
		start := l.C.Now()
		on()
		sampleSecond() // onset second
		rep := diagnose(int(cfg.PhaseLen/time.Second) - 1)
		off()
		res.Phases = append(res.Phases, Fig8Phase{
			Name:        name,
			Start:       start,
			End:         l.C.Now(),
			ExpectedLoc: expected,
			ObservedLoc: rep.TopLocation,
			Inferred:    rep.Inferred,
			Scope:       rep.Scope,
			Evidence:    rep.Evidence,
			OK:          rep.TopLocation == expected,
		})
	}
	quiet := func() {
		for i := 0; i < int(cfg.QuietLen/time.Second); i++ {
			sampleSecond()
		}
	}

	// Baseline.
	quiet()

	// Phase 1: incoming-bandwidth flood -> pNIC drops.
	runPhase("rx-bw-bound", diagnosis.LocPNIC,
		func() { rxFloodOn = true },
		func() { rxFloodOn = false })
	quiet()

	// Phase 2: outgoing flood -> backlog-enqueue drops.
	runPhase("tx-bw-bound", diagnosis.LocBacklogEnqueue,
		func() {
			for _, f := range floods {
				f.RateBps = cfg.TxFloodBps
			}
		},
		func() {
			for _, f := range floods {
				f.RateBps = 0
			}
		})
	quiet()

	// Phase 3: CPU-intensive tenant VMs -> TUN drops (aggregated).
	var cpuHogs []*machine.Hog
	runPhase("pCPU-bound", diagnosis.LocTUNAggregated,
		func() {
			for i := 0; i < cfg.TenantVMs; i++ {
				cpuHogs = append(cpuHogs, m.AddHog(&machine.Hog{
					Name: fmt.Sprintf("cpuhog-%d", i), Kind: machine.HogCPU,
					VM: core.VMID(fmt.Sprintf("vm-t%d", i)), CPUDemandCores: 2.0,
				}))
			}
		},
		func() {
			for _, h := range cpuHogs {
				m.RemoveHog(h)
			}
			cpuHogs = nil
		})
	quiet()

	// Phase 4: memory-access-intensive tenant VMs -> TUN drops (aggregated).
	var memHogs []*machine.Hog
	runPhase("mem-bw-bound", diagnosis.LocTUNAggregated,
		func() {
			for i := 0; i < cfg.TenantVMs; i++ {
				memHogs = append(memHogs, m.AddHog(&machine.Hog{
					Name: fmt.Sprintf("memhog-%d", i), Kind: machine.HogMem,
					VM: core.VMID(fmt.Sprintf("vm-t%d", i)), MemDemandBps: 4.3e9, CyclesPerByte: 0.33,
				}))
			}
		},
		func() {
			for _, h := range memHogs {
				m.RemoveHog(h)
			}
			memHogs = nil
		})
	quiet()

	// Phase 5: CPU hog inside one middlebox VM -> its TUN only.
	var vmHog *machine.Hog
	runPhase("VM-CPU-bound", diagnosis.LocTUNIndividual,
		func() {
			vmHog = m.AddHog(&machine.Hog{
				Name: "mbhog", Kind: machine.HogCPU, VM: "vm-mb0", CPUDemandCores: 4.0,
			})
		},
		func() { m.RemoveHog(vmHog) })
	quiet()

	return res, nil
}
