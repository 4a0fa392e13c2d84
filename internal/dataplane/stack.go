package dataplane

import (
	"fmt"
	"time"

	"perfsight/internal/core"
)

// Costs holds the per-element processing costs used by a machine's
// datapath. Cycle costs are in CPU cycles; membus factors are memory-bus
// bytes consumed per wire byte (DESIGN.md §5 explains the calibration
// against Fig 3's −439 Mbps per +1 GB/s slope).
type Costs struct {
	DriverCyclesPerPkt  float64 // pNIC interrupt handler
	NAPICyclesPerPkt    float64 // softirq + vswitch lookup
	QEMUCyclesPerPkt    float64 // hypervisor I/O handler
	GuestCyclesPerPkt   float64 // guest driver + NAPI combined, per hop
	DriverMembusFactor  float64 // DMA + sk_buff touch
	NAPIMembusFactor    float64 // TUN socket write copy
	QEMUMembusFactor    float64 // TUN->vNIC copy
	GuestMembusFactor   float64 // vNIC->socket copy
	AppMembusFactor     float64 // socket<->userspace copy (charged by apps)
	CounterCyclesSimple float64 // simple counter update (§7.4: ~3 ns)
	CounterCyclesTimer  float64 // time counter update (§7.4: ~0.29 µs)
}

// DefaultCosts returns costs calibrated for a 2.5 GHz core (see DESIGN.md).
// The total membus factor along pNIC->app is ≈ 18.2 bus bytes per wire
// byte, reproducing the Fig 3 slope.
func DefaultCosts() Costs {
	return Costs{
		DriverCyclesPerPkt: 1200,
		NAPICyclesPerPkt:   2400,
		QEMUCyclesPerPkt:   3600,
		GuestCyclesPerPkt:  1200,
		// Kernel softirq work rides DMA and cache-resident sk_buffs, so it
		// does not contend measurably with streaming memory hogs, and the
		// guest kernel's moves are likewise mostly sk_buff pointer passing.
		// The expensive stages are QEMU's user/kernel crossing (TAP read +
		// write into guest RAM) and the application's socket copy. This
		// asymmetry is what makes memory-bandwidth contention surface at
		// the TUN — the VM fetch path starves first — exactly as Table 1
		// records (and never at the pNIC ring or the guest socket).
		DriverMembusFactor:  0,
		NAPIMembusFactor:    0,
		QEMUMembusFactor:    13.2,
		GuestMembusFactor:   1.0,
		AppMembusFactor:     4.0,
		CounterCyclesSimple: 7.5, // ~3 ns at 2.5 GHz
		CounterCyclesTimer:  725, // ~0.29 µs at 2.5 GHz
	}
}

// StackConfig sizes one machine's virtualization stack.
type StackConfig struct {
	Machine       core.MachineID
	BacklogQueues int // per-CPU backlog queues (RSS); default = #cores
	BacklogCap    int // packets per backlog queue (netdev_max_backlog, 300)
	// NoFairBacklogAdmission disables the saturation-admission model
	// (ablation knob: without it, tick phasing decides whose packets drop).
	NoFairBacklogAdmission bool
	PNICRxBps              float64
	PNICTxBps              float64
	PNICRing               int // receive DMA ring, packets
	PNICTxQueue            int // transmit queue, packets (txqueuelen)
	TUNQueue               int // TUN socket queue, packets
	VNICRing               int // vNIC rings, packets
	GuestBacklog           int // guest backlog, packets
	SocketRxBytes          int64
	SocketTxBytes          int64
	Costs                  Costs
}

// DefaultStackConfig mirrors the paper's testbed: 10 GbE NIC, 300-packet
// backlogs, 500-packet TUN queues.
func DefaultStackConfig(machine core.MachineID, cores int) StackConfig {
	return StackConfig{
		Machine:       machine,
		BacklogQueues: cores,
		BacklogCap:    300,
		PNICRxBps:     10e9,
		PNICTxBps:     10e9,
		PNICRing:      4096,
		PNICTxQueue:   4096,
		TUNQueue:      500,
		VNICRing:      1024,
		GuestBacklog:  300,
		SocketRxBytes: 4 << 20, // Linux autotuned rmem (tcp_rmem max tier)
		SocketTxBytes: 1 << 20,
		Costs:         DefaultCosts(),
	}
}

// VMStack is the per-VM column of Figure 5: TUN and QEMU on the host side,
// and the guest elements inside the VM.
type VMStack struct {
	VM   core.VMID
	Tun  *TUN
	Qemu *HypervisorIO

	VNic       *VNIC
	Driver     *VNICDriver
	GuestQueue *VCPUBacklog
	GuestNapi  *GuestNAPI
	Socket     *GuestSocket
	costs      Costs
}

// Elements returns every element of this VM for agent registration.
func (v *VMStack) Elements() []core.Element {
	return []core.Element{v.Tun, v.Qemu, v.VNic, v.Driver, v.GuestQueue, v.GuestNapi, v.Socket}
}

// GuestRx advances the guest receive path one tick: vCPU backlog -> socket
// first (draining downstream), then vNIC ring -> vCPU backlog. All moves
// are space-limited (backpressure), charged to the VM's vCPU grant and the
// machine memory bus.
func (v *VMStack) GuestRx(vcpu *CycleBudget, bus *MembusBudget) {
	// Guest NAPI: backlog -> socket receive buffer.
	for {
		maxPkts := vcpu.PacketsFor(v.costs.GuestCyclesPerPkt)
		maxBytes := min64(bus.WireBytesFor(v.costs.GuestMembusFactor), v.Socket.RxFree())
		if maxPkts <= 0 || maxBytes <= 0 {
			break
		}
		got := v.GuestQueue.q.Dequeue(maxPkts, maxBytes)
		if len(got) == 0 {
			break
		}
		for _, b := range got {
			vcpu.SpendPackets(b.Packets, v.costs.GuestCyclesPerPkt)
			bus.SpendWireBytes(b.Bytes, v.costs.GuestMembusFactor)
			v.GuestQueue.CountTx(b)
			v.GuestNapi.CountRx(b)
			v.GuestNapi.CountTx(b)
			v.Socket.DeliverRx(b)
		}
	}
	// Guest driver: vNIC receive ring -> backlog (poll mode, space-limited).
	for {
		maxPkts := min(vcpu.PacketsFor(v.costs.GuestCyclesPerPkt), v.GuestQueue.q.FreePackets())
		maxBytes := bus.WireBytesFor(v.costs.GuestMembusFactor)
		if maxPkts <= 0 || maxBytes <= 0 {
			return
		}
		got := v.VNic.DequeueRx(maxPkts, maxBytes)
		if len(got) == 0 {
			return
		}
		for _, b := range got {
			vcpu.SpendPackets(b.Packets, v.costs.GuestCyclesPerPkt)
			bus.SpendWireBytes(b.Bytes, v.costs.GuestMembusFactor)
			v.Driver.CountRx(b)
			v.Driver.CountTx(b)
			v.GuestQueue.CountRx(b)
			v.GuestQueue.q.Enqueue(b) // space checked above
		}
	}
}

// KernelBehind reports whether the guest kernel is failing to keep up
// with its receive ring — the state in which the guest also cannot
// generate ACKs and window updates, so senders keep acting on stale
// windows (see cluster.vmWindow).
func (v *VMStack) KernelBehind() bool {
	return v.VNic.RxRingLen() >= v.VNic.rxRing.CapPackets()*3/4
}

// GuestTx advances the guest transmit path: socket send buffer -> vNIC
// transmit ring, space-limited.
func (v *VMStack) GuestTx(vcpu *CycleBudget, bus *MembusBudget) {
	for {
		maxPkts := min(vcpu.PacketsFor(v.costs.GuestCyclesPerPkt), v.VNic.TxSpace())
		maxBytes := bus.WireBytesFor(v.costs.GuestMembusFactor)
		if maxPkts <= 0 || maxBytes <= 0 {
			return
		}
		got := v.Socket.DequeueTx(maxPkts, maxBytes)
		if len(got) == 0 {
			return
		}
		for _, b := range got {
			vcpu.SpendPackets(b.Packets, v.costs.GuestCyclesPerPkt)
			bus.SpendWireBytes(b.Bytes, v.costs.GuestMembusFactor)
			v.GuestNapi.CountTx(b)
			v.VNic.EnqueueTx(b)
		}
	}
}

// Stack assembles one machine's software dataplane.
type Stack struct {
	Cfg StackConfig

	PNic     *PNIC
	Driver   *PNICDriver
	Backlogs *BacklogSet
	Napi     *NAPI
	VSwitch  *VSwitch
	VMs      map[core.VMID]*VMStack

	tuns   map[core.VMID]*TUN
	tracer *DropTracer
}

// NewStack builds the virtualization-stack elements from cfg.
func NewStack(cfg StackConfig) *Stack {
	m := cfg.Machine
	s := &Stack{
		Cfg: cfg,
		PNic: NewPNIC(eid(m, "pnic"), cfg.PNICRxBps, cfg.PNICTxBps,
			cfg.PNICRing, cfg.PNICTxQueue),
		Driver:   NewPNICDriver(eid(m, "pnic_driver"), cfg.Costs.DriverCyclesPerPkt, cfg.Costs.DriverMembusFactor),
		Backlogs: NewBacklogSet(m, cfg.BacklogQueues, cfg.BacklogCap),

		Napi:    NewNAPI(eid(m, "napi"), cfg.Costs.NAPICyclesPerPkt, cfg.Costs.NAPIMembusFactor),
		VSwitch: NewVSwitch(eid(m, "vswitch")),
		VMs:     make(map[core.VMID]*VMStack),
		tuns:    make(map[core.VMID]*TUN),
	}
	s.Backlogs.NoFairAdmission = cfg.NoFairBacklogAdmission
	return s
}

func eid(m core.MachineID, parts ...string) core.ElementID {
	id := string(m)
	for _, p := range parts {
		id += "/" + p
	}
	return core.ElementID(id)
}

// AddVM instantiates the per-VM stack column with the given vNIC capacity.
func (s *Stack) AddVM(vm core.VMID, vnicBps float64) *VMStack {
	if _, dup := s.VMs[vm]; dup {
		panic(fmt.Sprintf("dataplane: duplicate VM %s on %s", vm, s.Cfg.Machine))
	}
	m := s.Cfg.Machine
	v := &VMStack{
		VM:   vm,
		Tun:  NewTUN(eid(m, string(vm), "tun"), vm, s.Cfg.TUNQueue),
		Qemu: NewHypervisorIO(eid(m, string(vm), "qemu"), vm, s.Cfg.Costs.QEMUCyclesPerPkt, s.Cfg.Costs.QEMUMembusFactor),
		VNic: NewVNIC(eid(m, string(vm), "guest", "vnic"), vm, vnicBps, s.Cfg.VNICRing),
		Driver: NewVNICDriver(eid(m, string(vm), "guest", "vnic_driver"),
			s.Cfg.Costs.GuestCyclesPerPkt, s.Cfg.Costs.GuestMembusFactor),
		GuestQueue: NewVCPUBacklog(eid(m, string(vm), "guest", "backlog"), s.Cfg.GuestBacklog),
		GuestNapi: NewGuestNAPI(eid(m, string(vm), "guest", "napi"),
			s.Cfg.Costs.GuestCyclesPerPkt, s.Cfg.Costs.GuestMembusFactor),
		Socket: NewGuestSocket(eid(m, string(vm), "guest", "socket"), s.Cfg.SocketRxBytes, s.Cfg.SocketTxBytes),
		costs:  s.Cfg.Costs,
	}
	s.VMs[vm] = v
	s.tuns[vm] = v.Tun
	if s.tracer != nil {
		s.AttachTracer(s.tracer)
	}
	return v
}

// RemoveVM detaches a VM (migration). Its in-flight traffic is discarded.
func (s *Stack) RemoveVM(vm core.VMID) {
	delete(s.VMs, vm)
	delete(s.tuns, vm)
}

// Elements returns every virtualization-stack element (per-VM elements are
// reported by each VMStack).
func (s *Stack) Elements() []core.Element {
	out := []core.Element{s.PNic, s.Driver, s.Napi, s.VSwitch}
	for _, q := range s.Backlogs.Queues() {
		out = append(out, q)
	}
	return out
}

// AllElements returns stack plus per-VM elements.
func (s *Stack) AllElements() []core.Element {
	out := s.Elements()
	for _, vm := range s.VMs {
		out = append(out, vm.Elements()...)
	}
	return out
}

// AttachTracer routes every stack element's drops (including per-VM
// elements, and those of VMs added later) into the tracer.
func (s *Stack) AttachTracer(t *DropTracer) {
	s.tracer = t
	s.PNic.AttachTracer(t)
	s.Driver.AttachTracer(t)
	s.Napi.AttachTracer(t)
	s.VSwitch.AttachTracer(t)
	for _, q := range s.Backlogs.Queues() {
		q.AttachTracer(t)
	}
	for _, v := range s.VMs {
		for _, e := range []interface{ AttachTracer(*DropTracer) }{
			&v.Tun.Base, &v.Qemu.Base, &v.VNic.Base, &v.Driver.Base,
			&v.GuestQueue.Base, &v.GuestNapi.Base, &v.Socket.Base,
		} {
			e.AttachTracer(t)
		}
	}
}

// Tracer returns the attached drop tracer, if any.
func (s *Stack) Tracer() *DropTracer { return s.tracer }

// SetCostScales applies this tick's load-dependent cost inflation to the
// wakeup-heavy I/O elements: the softirq path (driver + NAPI) and each
// VM's QEMU I/O handler.
func (s *Stack) SetCostScales(softirqScale, qemuScale float64) {
	s.Driver.CostScale = softirqScale
	s.Napi.CostScale = softirqScale
	for _, v := range s.VMs {
		v.Qemu.CostScale = qemuScale
	}
}

// OfferRx admits wire arrivals at the pNIC.
func (s *Stack) OfferRx(batches []Batch, dt time.Duration) {
	s.PNic.OfferRx(batches, dt)
}

// DrainTx emits wire departures from the pNIC.
func (s *Stack) DrainTx(dt time.Duration) []Batch {
	return s.PNic.DrainTx(dt)
}

// RunHostSoftirq runs the driver and NAPI phases under the softirq cycle
// grant: ring -> backlog, then backlog -> vswitch -> TUN/pNIC.
func (s *Stack) RunHostSoftirq(cpu *CycleBudget, bus *MembusBudget) {
	// NAPI first drains what previous ticks enqueued, then the driver
	// refills from the ring; a second NAPI pass consumes fresh arrivals if
	// budget remains, keeping single-tick latency low at low load.
	s.Napi.Run(s.Backlogs, s.VSwitch, s.PNic, s.tuns, cpu, bus)
	s.Driver.Move(s.PNic, s.Backlogs, cpu, bus)
	s.Napi.Run(s.Backlogs, s.VSwitch, s.PNic, s.tuns, cpu, bus)
}

// RunQemuTx advances one VM's transmit-side hypervisor I/O (vNIC ring ->
// TAP -> pCPU backlog). It runs before the host softirq phase so the NAPI
// routine drains these enqueues within the same tick, as the kernel's
// softirq scheduling does.
func (s *Stack) RunQemuTx(vm core.VMID, cpu *CycleBudget, bus *MembusBudget, dt time.Duration) {
	if v, ok := s.VMs[vm]; ok {
		v.Qemu.MoveTx(v.VNic, s.Backlogs, cpu, bus, dt)
	}
}

// RunQemuRx advances one VM's receive-side hypervisor I/O (TUN -> vNIC),
// after the softirq phase has refilled the TUN.
func (s *Stack) RunQemuRx(vm core.VMID, cpu *CycleBudget, bus *MembusBudget, dt time.Duration) {
	if v, ok := s.VMs[vm]; ok {
		v.Qemu.MoveRx(v.Tun, v.VNic, cpu, bus, dt)
	}
}

// InjectToVM writes a batch directly into a VM's TUN, bypassing the pNIC
// path (used for traffic originating on the same machine's host, e.g. a
// management agent, and by tests).
func (s *Stack) InjectToVM(vm core.VMID, b Batch) {
	if t, ok := s.tuns[vm]; ok {
		b.DstVM = vm
		t.Write(b)
	}
}
