// Package machine models one physical server of the paper's testbed: CPU
// cores, the shared memory bus, the physical NIC, the virtualization-stack
// dataplane, the VMs placed on it, and interfering workloads (CPU hogs,
// memory-access hogs, management tasks).
//
// Each virtual-time tick the machine apportions its CPU cycles among the
// contending consumers — the host softirq path, each VM's QEMU I/O thread,
// each VM's vCPUs, and host-level tasks — by max–min fair share, and its
// memory-bus bytes between streaming memory hogs (served with priority,
// per the DESIGN.md §5 calibration) and datapath copies. Contention and
// bottleneck phenomena then emerge rather than being scripted: starve QEMU
// of cycles or the bus and the TUN overflows; flood small packets and the
// backlog enqueue drops.
package machine

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"perfsight/internal/core"
	"perfsight/internal/dataplane"
	"perfsight/internal/sim"
)

// Config sizes a physical machine. The defaults mirror the paper's Dell
// T5500 testbed: 8 cores, 10 GbE, 16 GB.
type Config struct {
	ID        core.MachineID
	Cores     int
	CPUHz     float64 // cycles per second per core
	MembusBps float64 // memory-bus capacity, bytes per second
	MemBytes  int64   // RAM size (sk_buff alloc fails when nearly full)
	Stack     dataplane.StackConfig
	// NoLoadInflation disables the wakeup-latency cost inflation on I/O
	// threads (ablation knob; see DESIGN.md §5).
	NoLoadInflation bool
	// NoGuestBurstScheduling disables the bursty guest execution under a
	// dominating in-VM hog (ablation knob; see DESIGN.md §5).
	NoGuestBurstScheduling bool
}

// DefaultConfig returns a testbed-like machine configuration.
func DefaultConfig(id core.MachineID) Config {
	return Config{
		ID:        id,
		Cores:     8,
		CPUHz:     2.5e9,
		MembusBps: 27e9,
		MemBytes:  16 << 30, // 16 GB, as on the Dell T5500 testbed
		Stack:     dataplane.DefaultStackConfig(id, 8),
	}
}

// App is middlebox or workload software running inside a VM. Apps are
// stepped once per tick under their VM's vCPU grant.
type App interface {
	ID() core.ElementID
	// CPUDemand returns the cycles the app would consume this tick if
	// unconstrained; the machine uses it to size the VM's vCPU claim.
	CPUDemand(dt time.Duration) float64
	Step(ctx *AppContext)
	// Snapshot exposes the app's middlebox counters (§4.1 instrumentation).
	Snapshot(ts int64) core.Record
}

// AppContext is what an app sees during its tick.
type AppContext struct {
	Now, Dt time.Duration
	VM      *dataplane.VMStack
	VCPU    *dataplane.CycleBudget
	Bus     *dataplane.MembusBudget
}

// VM is one virtual machine: its stack column, vCPU allocation and apps.
type VM struct {
	ID    core.VMID
	VCPUs float64 // cores allocated
	Stack *dataplane.VMStack
	Apps  []App

	// This tick's grants and the context the apps are stepped with, reset
	// by Machine.Tick.
	qemu, vcpu        dataplane.CycleBudget
	qemuBus, guestBus dataplane.MembusBudget
	ctx               AppContext
}

// HogKind distinguishes interfering workloads.
type HogKind int

const (
	// HogCPU is a compute-bound task (busy loop).
	HogCPU HogKind = iota
	// HogMem is a memory-access-bound task (streaming copies).
	HogMem
	// HogMemSpace allocates and holds memory (a leaking or greedy task),
	// driving the machine toward sk_buff allocation failures.
	HogMemSpace
)

// Hog is an interfering workload on the host or inside a VM.
type Hog struct {
	Name string
	Kind HogKind
	// VM is the hosting VM, or "" for a host-level task (e.g. the
	// management task of §7.3).
	VM core.VMID
	// CPUDemandCores is the compute appetite (HogCPU), in cores.
	CPUDemandCores float64
	// MemDemandBps is the streaming-copy appetite (HogMem), bytes/s.
	MemDemandBps float64
	// CyclesPerByte is the CPU cost of the streaming copy (HogMem).
	CyclesPerByte float64
	// AllocBytes is the resident memory held (HogMemSpace).
	AllocBytes int64

	achievedCycles float64
	achievedBytes  int64
	lastBytesBps   float64
}

// AchievedMemBps returns the hog's memory throughput over the last tick.
func (h *Hog) AchievedMemBps() float64 { return h.lastBytesBps }

// AchievedCycles returns the cumulative CPU cycles a compute hog burned.
func (h *Hog) AchievedCycles() float64 { return h.achievedCycles }

// AchievedMemBytes returns cumulative bytes moved.
func (h *Hog) AchievedMemBytes() int64 { return h.achievedBytes }

// Machine is one physical server.
type Machine struct {
	Cfg   Config
	Stack *dataplane.Stack

	vms      map[core.VMID]*VM
	vmOrder  []core.VMID
	hogs     []*Hog
	host     *HostStats
	lastTick tickStats
	tick     int64

	// Wire departures are double-buffered: Tick appends to outWire while
	// the caller may still be ranging over what CollectWire last returned.
	outWire, collected []dataplane.Batch

	// Per-tick state lives here, not in Tick's frame, so a tick allocates
	// nothing: the host-side grants, and the fair-share demand and
	// allocation vectors.
	softirq              dataplane.CycleBudget
	busPool, softirqBus  dataplane.MembusBudget
	demands, alloc       []float64
	busDemands, busAlloc []float64

	// Last-tick spends drive next-tick demand headroom: a consumer claims
	// its queued work plus twice what it managed last tick, so claims
	// track actual load instead of line-rate worst cases (which would
	// spuriously trigger the oversubscription penalty on idle machines).
	lastSoftirqSpent float64
	lastQemuSpent    map[core.VMID]float64
	lastSoftirqBus   float64
	lastQemuBus      map[core.VMID]float64
	lastGuestBus     map[core.VMID]float64
	lastVcpuApp      map[core.VMID]float64 // non-hog vCPU cycles spent
}

type tickStats struct {
	cpuSpent   float64
	cpuTotal   float64
	busSpent   float64
	busTotal   float64
	softirqCut bool // softirq demand exceeded its grant
}

// New builds a machine from cfg.
func New(cfg Config) *Machine {
	if cfg.Cores <= 0 {
		cfg.Cores = 8
	}
	if cfg.CPUHz <= 0 {
		cfg.CPUHz = 2.5e9
	}
	if cfg.MembusBps <= 0 {
		cfg.MembusBps = 27e9
	}
	if cfg.Stack.Machine == "" {
		cfg.Stack = dataplane.DefaultStackConfig(cfg.ID, cfg.Cores)
	}
	m := &Machine{
		Cfg:           cfg,
		Stack:         dataplane.NewStack(cfg.Stack),
		vms:           make(map[core.VMID]*VM),
		lastQemuSpent: make(map[core.VMID]float64),
		lastQemuBus:   make(map[core.VMID]float64),
		lastGuestBus:  make(map[core.VMID]float64),
		lastVcpuApp:   make(map[core.VMID]float64),
	}
	m.host = &HostStats{id: core.ElementID(string(cfg.ID) + "/host"), m: m}
	return m
}

// ID returns the machine's identity.
func (m *Machine) ID() core.MachineID { return m.Cfg.ID }

// AddVM places a VM with the given vCPU allocation and vNIC capacity.
func (m *Machine) AddVM(id core.VMID, vcpus, vnicBps float64, apps ...App) *VM {
	if _, dup := m.vms[id]; dup {
		panic(fmt.Sprintf("machine %s: duplicate VM %s", m.Cfg.ID, id))
	}
	vm := &VM{ID: id, VCPUs: vcpus, Stack: m.Stack.AddVM(id, vnicBps), Apps: apps}
	m.vms[id] = vm
	m.vmOrder = append(m.vmOrder, id)
	return vm
}

// RemoveVM migrates a VM away (its elements stop being ticked).
func (m *Machine) RemoveVM(id core.VMID) {
	delete(m.vms, id)
	for i, v := range m.vmOrder {
		if v == id {
			m.vmOrder = append(m.vmOrder[:i], m.vmOrder[i+1:]...)
			break
		}
	}
	m.Stack.RemoveVM(id)
}

// VM returns the named VM.
func (m *Machine) VM(id core.VMID) *VM { return m.vms[id] }

// VMs returns VM IDs in placement order.
func (m *Machine) VMs() []core.VMID { return append([]core.VMID(nil), m.vmOrder...) }

// AddHog attaches an interfering workload.
func (m *Machine) AddHog(h *Hog) *Hog {
	m.hogs = append(m.hogs, h)
	return h
}

// RemoveHog detaches a workload (e.g. the operator migrating the
// management task away in §7.3).
func (m *Machine) RemoveHog(h *Hog) {
	for i, x := range m.hogs {
		if x == h {
			m.hogs = append(m.hogs[:i], m.hogs[i+1:]...)
			return
		}
	}
}

// OfferWire presents arrivals from the physical network for this tick.
func (m *Machine) OfferWire(batches []dataplane.Batch, dt time.Duration) {
	m.Stack.OfferRx(batches, dt)
}

// CollectWire returns (and clears) this tick's wire departures. The result
// is valid until the next CollectWire.
func (m *Machine) CollectWire() []dataplane.Batch {
	m.outWire, m.collected = m.collected[:0], m.outWire
	return m.collected
}

// HostElement returns the machine-utilization pseudo-element.
func (m *Machine) HostElement() core.Element { return m.host }

// Elements returns every PerfSight element on this machine (stack, per-VM,
// apps, host gauge).
func (m *Machine) Elements() []core.Element {
	out := m.Stack.Elements()
	for _, id := range m.vmOrder {
		vm := m.vms[id]
		out = append(out, vm.Stack.Elements()...)
		for _, a := range vm.Apps {
			out = append(out, appElement{a})
		}
	}
	out = append(out, m.host)
	return out
}

// appElement adapts an App to core.Element.
type appElement struct{ a App }

func (e appElement) ID() core.ElementID            { return e.a.ID() }
func (e appElement) Kind() core.ElementKind        { return core.KindMiddlebox }
func (e appElement) Snapshot(ts int64) core.Record { return e.a.Snapshot(ts) }

// Tick advances the machine one step. See the package comment for the
// phase ordering rationale.
func (m *Machine) Tick(now, dt time.Duration) {
	m.tick++
	if tr := m.Stack.Tracer(); tr != nil {
		tr.SetNow(int64(now))
	}
	m.Stack.Backlogs.BeginTick()
	// 1. Wire departures free pNIC transmit-queue space first.
	m.outWire = append(m.outWire, m.Stack.DrainTx(dt)...)

	// 2. Host CPU load and its effect on I/O threads. The machine's
	// *actually runnable* load — spinning hogs plus the datapath's real
	// recent consumption — determines two things a pure fair-share
	// allocation would miss (this is why NFV deployments pin cores):
	//
	//   - CFS gives each runnable thread one timeslice: no single I/O
	//     thread can claim more than totalCycles/#runnable.
	//   - Wakeup-heavy I/O threads (host softirq, per-VM QEMU I/O), which
	//     sleep and wake per packet batch, pay sharply growing scheduling-
	//     latency and cache-pollution overhead as load approaches the
	//     cores. vCPU threads hold cores for full slices and batch hogs
	//     are insensitive, so neither pays it.
	//
	// The rho^16 inflation curve is a calibration choice (DESIGN.md §5)
	// reproducing the paper's CPU-contention symptoms (Fig 8 phase 3)
	// while staying negligible below ~80% load.
	totalCycles := float64(m.Cfg.Cores) * m.Cfg.CPUHz * dt.Seconds()
	realLoad := m.lastSoftirqSpent
	threads := 1.0 // softirq
	const tinyThread = 0.005
	for _, id := range m.vmOrder {
		realLoad += m.lastQemuSpent[id] + m.lastVcpuApp[id]
		if m.lastQemuSpent[id] > tinyThread*m.Cfg.CPUHz*dt.Seconds() {
			threads++
		}
		if m.lastVcpuApp[id] > tinyThread*m.Cfg.CPUHz*dt.Seconds() {
			threads++
		}
	}
	for _, h := range m.hogs {
		d := m.hogCPUDemand(h, dt)
		if h.VM != "" {
			// A hog inside a VM is bounded by the VM's vCPU threads.
			if cap := m.vms[h.VM].VCPUs * m.Cfg.CPUHz * dt.Seconds(); d > cap {
				d = cap
			}
		}
		realLoad += d
		if d > 0 {
			threads++
		}
	}
	// Memory-space pressure: when resident allocations approach RAM,
	// atomic sk_buff allocations start failing in the driver (Table 1's
	// memory-space row).
	memTotal := m.Cfg.MemBytes
	if memTotal <= 0 {
		memTotal = 16 << 30
	}
	var resident int64
	for _, h := range m.hogs {
		resident += h.AllocBytes
	}
	free := float64(memTotal-resident) / float64(memTotal)
	switch {
	case free < 0.02:
		m.Stack.Driver.AllocFailRate = 0.5
	case free < 0.05:
		m.Stack.Driver.AllocFailRate = 0.1 * (0.05 - free) / 0.03
	default:
		m.Stack.Driver.AllocFailRate = 0
	}

	rho := sim.Clamp(realLoad/totalCycles, 0, 1)
	rho16 := math.Pow(rho, 16)
	if m.Cfg.NoLoadInflation {
		rho16 = 0
	}
	m.Stack.SetCostScales(1+8*rho16, 1+48*rho16)
	perThread := totalCycles / threads

	// 3a. Size the competing CPU claims, I/O threads capped per-thread:
	// softirq, then qemu and vcpu per VM, then host-level hogs.
	// The softirq claim is bounded by its kthreads (up to two cores here)
	// and by one core per backlog queue: a single queue's drain cannot be
	// parallelized, which is the §7.2 case-1 contention.
	softirqCap := minf(2*perThread, float64(m.Cfg.Stack.BacklogQueues)*m.Cfg.CPUHz*dt.Seconds())
	softirqDemand := minf(m.softirqDemand(dt), softirqCap)
	m.demands = append(m.demands[:0], softirqDemand)
	for _, id := range m.vmOrder {
		vm := m.vms[id]
		vcpuCap := vm.VCPUs * m.Cfg.CPUHz * dt.Seconds()
		m.demands = append(m.demands, minf(m.qemuDemand(vm, dt), perThread), minf(m.vcpuDemand(vm, dt), vcpuCap))
	}
	hostHogBase := len(m.demands)
	for _, h := range m.hogs {
		if h.VM != "" {
			continue // in-VM hogs are apps; they claim through their VM
		}
		m.demands = append(m.demands, m.hogCPUDemand(h, dt))
	}
	m.alloc = sim.FairShareInto(m.alloc, totalCycles, m.demands)
	alloc := m.alloc

	// 3. Memory-bus budgets: streaming hogs reserve with priority (the
	// DESIGN.md §5 calibration of why memory-bandwidth contention shows no
	// explicit symptom); the residual is max–min fair-shared across the
	// datapath consumers the same way CPU is, so every pipeline stage
	// degrades together instead of the last stage starving outright.
	busTotal := m.Cfg.MembusBps * dt.Seconds()
	hogBusDemand := 0.0
	for _, h := range m.hogs {
		if h.Kind == HogMem {
			hogBusDemand += h.MemDemandBps * dt.Seconds()
		}
	}
	hogBus := minf(hogBusDemand, busTotal)
	m.busDemands = append(m.busDemands[:0], m.softirqBusDemand(dt))
	for _, id := range m.vmOrder {
		vm := m.vms[id]
		m.busDemands = append(m.busDemands, m.qemuBusDemand(vm, dt), m.guestBusDemand(vm, dt))
	}
	m.busAlloc = sim.FairShareInto(m.busAlloc, busTotal-hogBus, m.busDemands)
	busAlloc := m.busAlloc
	busPool := &m.busPool
	busPool.Reset(int64(busTotal-hogBus), nil)
	busCap := func(i int) int64 {
		c := int64(1.75 * busAlloc[i])
		if c < busEpsilon {
			c = busEpsilon
		}
		return c
	}
	hogBusLeft := hogBus

	// 4. Execute the datapath phases under their grants. VM transmit runs
	// before the host softirq so TAP enqueues are drained within the tick
	// (the kernel raises and serves NET_RX_SOFTIRQ promptly); VM receive
	// runs after, once the softirq has refilled the TUNs.
	// Rotate the service order across ticks so the work-conserving shared
	// pools do not systematically favor the first-placed VM.
	n := len(m.vmOrder)
	for k := 0; k < n; k++ {
		i := (int(m.tick) + k) % n
		vm := m.vms[m.vmOrder[i]]
		vm.qemu.Reset(alloc[1+2*i])
		vm.qemuBus.Reset(busCap(1+2*i), busPool)
		m.Stack.RunQemuTx(vm.ID, &vm.qemu, &vm.qemuBus, dt)
	}

	softirq, softirqBus := &m.softirq, &m.softirqBus
	softirq.Reset(alloc[0])
	softirqBus.Reset(busCap(0), busPool)
	m.Stack.RunHostSoftirq(softirq, softirqBus)
	m.lastTick.busSpent += float64(softirqBus.Spent())
	m.lastSoftirqSpent = softirq.Spent()
	m.lastSoftirqBus = float64(softirqBus.Spent())

	for k := 0; k < n; k++ {
		i := (int(m.tick) + k) % n
		id := m.vmOrder[i]
		vm := m.vms[id]
		qemu, qemuBus := &vm.qemu, &vm.qemuBus
		m.Stack.RunQemuRx(id, qemu, qemuBus, dt)
		m.lastQemuSpent[id] = qemu.Spent()
		m.lastQemuBus[id] = float64(qemuBus.Spent())
		vcpu, guestBus := &vm.vcpu, &vm.guestBus
		vcpu.Reset(alloc[2+2*i])
		guestBus.Reset(busCap(2+2*i), busPool)

		// In-VM hogs timeshare the guest with its apps: carve out their
		// demand-proportional slice of the vCPU grant first, so a CPU-
		// intensive task inside a middlebox VM degrades the middlebox
		// (the Fig 8 "VM CPU bound" phase). A hog that dominates the vCPU
		// also makes the guest's kernel and apps run in bursts — the
		// guest scheduler wakes them at millisecond latency — which is
		// what lets the TUN overflow before TCP flow control reacts.
		hogSpentVM := 0.0
		runGuest := true
		if hogD := m.vmHogDemand(id, dt); hogD > 0 {
			share := hogD / m.vcpuDemand(vm, dt)
			if share > 0.5 && !m.Cfg.NoGuestBurstScheduling {
				period := int64(1 + share*20)
				runGuest = (m.tick+int64(i))%period == 0
			}
			cut := vcpu.Remaining() * share
			for _, h := range m.hogs {
				if h.VM != id {
					continue
				}
				grant := minf(cut, m.hogCPUDemand(h, dt))
				spent := m.runHog(h, grant, &hogBusLeft, dt)
				vcpu.SpendCycles(spent)
				cut -= spent
				hogSpentVM += spent
				m.lastTick.cpuSpent += spent
			}
		}

		if runGuest {
			vm.Stack.GuestRx(vcpu, guestBus)
			vm.ctx = AppContext{Now: now, Dt: dt, VM: vm.Stack, VCPU: vcpu, Bus: guestBus}
			for _, a := range vm.Apps {
				a.Step(&vm.ctx)
			}
			vm.Stack.GuestTx(vcpu, guestBus)
		}
		m.lastGuestBus[id] = float64(guestBus.Spent())
		m.lastVcpuApp[id] = vcpu.Spent() - hogSpentVM
		m.lastTick.cpuSpent += qemu.Spent() + vcpu.Spent()
		m.lastTick.busSpent += float64(qemuBus.Spent() + guestBus.Spent())
	}

	// 5. Host-level hogs consume their grants (in-VM hogs already ran
	// inside their VM's slice).
	hi := hostHogBase
	for _, h := range m.hogs {
		if h.VM != "" {
			continue
		}
		grant := alloc[hi]
		hi++
		spent := m.runHog(h, grant, &hogBusLeft, dt)
		m.lastTick.cpuSpent += spent
	}

	// 6. Collect this tick's departures queued behind the line-rate drain.
	m.lastTick.cpuSpent += softirq.Spent()
	m.lastTick.cpuTotal = totalCycles
	m.lastTick.busSpent += hogBus - hogBusLeft
	m.lastTick.busTotal = busTotal
	m.lastTick.softirqCut = softirqDemand > alloc[0]*1.01
	m.host.update(m.lastTick)
	m.lastTick = tickStats{}
}

// runHog executes one hog under its CPU grant and the hog bus reserve,
// returning cycles spent.
func (m *Machine) runHog(h *Hog, cpuGrant float64, busLeft *float64, dt time.Duration) float64 {
	switch h.Kind {
	case HogCPU:
		want := h.CPUDemandCores * m.Cfg.CPUHz * dt.Seconds()
		spent := minf(want, cpuGrant)
		h.achievedCycles += spent
		h.lastBytesBps = 0
		return spent
	case HogMem:
		cpb := h.CyclesPerByte
		if cpb <= 0 {
			cpb = 0.5
		}
		want := h.MemDemandBps * dt.Seconds()
		byCPU := cpuGrant / cpb
		bytes := minf(minf(want, byCPU), *busLeft)
		*busLeft -= bytes
		h.achievedBytes += int64(bytes)
		h.lastBytesBps = bytes / dt.Seconds()
		return bytes * cpb
	}
	return 0
}

// softirqDemand estimates the cycles the host softirq path could usefully
// consume this tick: pending ring and backlog packets at their costs, plus
// headroom for traffic arriving within the tick.
func (m *Machine) softirqDemand(dt time.Duration) float64 {
	c := m.Cfg.Stack.Costs
	pending := float64(m.Stack.PNic.RxRingLen())*(c.DriverCyclesPerPkt+c.NAPICyclesPerPkt) +
		float64(m.Stack.Backlogs.TotalLen())*c.NAPICyclesPerPkt
	// Headroom: twice last tick's throughput plus a bootstrap sliver.
	headroom := 2*m.lastSoftirqSpent + 0.01*m.Cfg.CPUHz*dt.Seconds()
	return pending + headroom
}

// softirqBusDemand estimates the host softirq path's memory-bus appetite:
// pending ring and backlog bytes plus one tick of line rate, at its copy
// factors.
func (m *Machine) softirqBusDemand(dt time.Duration) float64 {
	c := m.Cfg.Stack.Costs
	factor := c.DriverMembusFactor + c.NAPIMembusFactor
	pend := float64(m.Stack.PNic.RxRingBytes() + m.Stack.Backlogs.TotalBytes())
	return pend*factor + 2*m.lastSoftirqBus + busEpsilon
}

// qemuBusDemand estimates one VM's hypervisor-I/O copy appetite.
func (m *Machine) qemuBusDemand(vm *VM, dt time.Duration) float64 {
	c := m.Cfg.Stack.Costs
	pend := float64(vm.Stack.Tun.QueuedBytes() + vm.Stack.VNic.TxRingBytes())
	return pend*c.QEMUMembusFactor + 2*m.lastQemuBus[vm.ID] + busEpsilon
}

// guestBusDemand estimates one VM's guest-kernel and application copy
// appetite.
// busEpsilon (bytes per tick) bootstraps an idle consumer's bus claim.
const busEpsilon = 512 << 10

func (m *Machine) guestBusDemand(vm *VM, dt time.Duration) float64 {
	c := m.Cfg.Stack.Costs
	pend := float64(vm.Stack.VNic.RxRingBytes() + vm.Stack.GuestQueue.QueuedBytes() +
		vm.Stack.Socket.RxAvailable() + vm.Stack.Socket.TxQueued())
	return pend*(2*c.GuestMembusFactor+c.AppMembusFactor) + 2*m.lastGuestBus[vm.ID] + busEpsilon
}

// qemuDemand estimates one VM's hypervisor-I/O appetite.
func (m *Machine) qemuDemand(vm *VM, dt time.Duration) float64 {
	c := m.Cfg.Stack.Costs
	pending := float64(vm.Stack.Tun.Len()+vm.Stack.VNic.TxRingLen()) * c.QEMUCyclesPerPkt
	headroom := 2*m.lastQemuSpent[vm.ID] + 0.005*m.Cfg.CPUHz*dt.Seconds()
	return pending + headroom
}

// vcpuDemand estimates one VM's guest appetite: guest kernel work plus the
// declared demand of its apps and in-VM hogs.
func (m *Machine) vcpuDemand(vm *VM, dt time.Duration) float64 {
	c := m.Cfg.Stack.Costs
	d := float64(vm.Stack.VNic.RxRingLen()+vm.Stack.GuestQueue.Len()) * c.GuestCyclesPerPkt * 2
	for _, a := range vm.Apps {
		d += a.CPUDemand(dt)
	}
	// A window- or downstream-limited app declares appetite it cannot use;
	// cap the app+guest claim near recent actual spend so idle declared
	// demand does not manufacture scheduler contention. Hogs are always
	// runnable, so their demand stays fully declared.
	cap := 2*m.lastVcpuApp[vm.ID] + 0.1*m.Cfg.CPUHz*dt.Seconds()
	if d > cap {
		d = cap
	}
	for _, h := range m.hogs {
		if h.VM == vm.ID {
			d += m.hogCPUDemand(h, dt)
		}
	}
	// Always leave a sliver so an idle guest can start receiving.
	d += 0.005 * m.Cfg.CPUHz * dt.Seconds()
	return d
}

// vmHogDemand sums the CPU appetite of hogs inside one VM.
func (m *Machine) vmHogDemand(vm core.VMID, dt time.Duration) float64 {
	d := 0.0
	for _, h := range m.hogs {
		if h.VM == vm {
			d += m.hogCPUDemand(h, dt)
		}
	}
	return d
}

func (m *Machine) hogCPUDemand(h *Hog, dt time.Duration) float64 {
	switch h.Kind {
	case HogCPU:
		return h.CPUDemandCores * m.Cfg.CPUHz * dt.Seconds()
	case HogMem:
		cpb := h.CyclesPerByte
		if cpb <= 0 {
			cpb = 0.5
		}
		return h.MemDemandBps * dt.Seconds() * cpb
	}
	return 0
}

// HostStats is the pseudo-element publishing machine utilization gauges.
// The gauges are written by the tick loop and read concurrently by agent
// snapshots, so they are stored as atomic float bits.
type HostStats struct {
	id core.ElementID
	m  *Machine

	cpuUtilBits atomic.Uint64
	busUtilBits atomic.Uint64
}

func (h *HostStats) update(t tickStats) {
	const ewma = 0.2
	if t.cpuTotal > 0 {
		v := (1-ewma)*h.CPUUtil() + ewma*sim.Clamp(t.cpuSpent/t.cpuTotal, 0, 1)
		h.cpuUtilBits.Store(math.Float64bits(v))
	}
	if t.busTotal > 0 {
		v := (1-ewma)*h.MembusUtil() + ewma*sim.Clamp(t.busSpent/t.busTotal, 0, 1)
		h.busUtilBits.Store(math.Float64bits(v))
	}
}

// ID implements core.Element.
func (h *HostStats) ID() core.ElementID { return h.id }

// Kind implements core.Element.
func (h *HostStats) Kind() core.ElementKind { return core.KindUnknown }

// Snapshot implements core.Element.
func (h *HostStats) Snapshot(ts int64) core.Record {
	return core.Record{
		Timestamp: ts,
		Element:   h.id,
		Attrs: []core.Attr{
			{ID: core.AttrCPUUtil, Value: h.CPUUtil()},
			{ID: core.AttrMembusUtil, Value: h.MembusUtil()},
		},
	}
}

// CPUUtil returns the smoothed machine CPU utilization (0..1).
func (h *HostStats) CPUUtil() float64 { return math.Float64frombits(h.cpuUtilBits.Load()) }

// MembusUtil returns the smoothed memory-bus utilization (0..1).
func (h *HostStats) MembusUtil() float64 { return math.Float64frombits(h.busUtilBits.Load()) }

func minf(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
