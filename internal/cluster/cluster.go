// Package cluster assembles multi-machine scenarios: physical machines
// running the simulated virtualization stack, external hosts (clients,
// servers, the cloud gateway — the "Internet" side of Figure 2), flow
// routing between them, and the tenant topology the PerfSight controller
// consumes. It is the test-bed builder used by the experiments, examples
// and integration tests.
package cluster

import (
	"fmt"
	"time"

	"perfsight/internal/core"
	"perfsight/internal/dataplane"
	"perfsight/internal/machine"
	"perfsight/internal/sim"
	"perfsight/internal/stats"
	"perfsight/internal/stream"
	"perfsight/internal/telemetry"
)

// Endpoint designates one end of a flow: a VM on a machine, or an
// external host.
type Endpoint struct {
	Machine core.MachineID
	VM      core.VMID
	Host    string
}

// VMEndpoint returns an endpoint for a VM.
func VMEndpoint(m core.MachineID, vm core.VMID) Endpoint {
	return Endpoint{Machine: m, VM: vm}
}

// HostEndpoint returns an endpoint for an external host.
func HostEndpoint(name string) Endpoint { return Endpoint{Host: name} }

// IsHost reports whether the endpoint is an external host.
func (e Endpoint) IsHost() bool { return e.Host != "" }

// route records a flow's wire-level destination.
type route struct {
	machine core.MachineID
	host    string
}

// Cluster is a complete simulated deployment.
//
// Every tick follows one canonical two-phase schedule (see DESIGN.md
// §"Parallel lab & chaos"): pre tickers (chaos, actuators) → host phase →
// machine phase → serialized commit (wire routing, deferred connection
// feedback, receive-window refresh, post tickers). Machines exchange wire
// traffic with the cluster exclusively through the OfferWire/CollectWire
// structs, never by mutating another machine, which is what makes the
// phases safe to shard across tick domains (Parallelize) while staying
// byte-identical to the default one-domain, one-worker engine.
type Cluster struct {
	// RmemPerConn clamps the receive window a VM-destined connection
	// advertises, modelling per-socket tcp_rmem rather than the VM's
	// whole socket pool (Linux 3.2 default: 212992). Zero means 1 MiB.
	RmemPerConn int64

	machines     map[core.MachineID]*machine.Machine
	machineOrder []core.MachineID
	hosts        map[string]*Host
	hostOrder    []string
	routes       map[dataplane.FlowID]route
	registries   map[core.MachineID]*stats.Registry
	topo         *core.Topology

	// The wire exchange is double-buffered: the machine phase reads the
	// arrivals in pending, which the previous commit finished, while commit
	// routes this tick's departures into next and then swaps the two. Both
	// maps keep their slices, truncated, from tick to tick.
	pending, next map[core.MachineID][]dataplane.Batch

	// Two-phase tick state. conns/windows are everything the commit phase
	// must settle serially; pre/post run outside the parallel phases.
	eng       *sim.ParallelEngine
	pre       []sim.Ticker
	post      []sim.Ticker
	conns     []*stream.Conn
	windows   []*vmWindow
	frozen    bool      // placement frozen by Parallelize
	tickStart time.Time // telemetry: wall-clock start of the current tick

	// Optional self-telemetry (EnableTelemetry): wall-clock cost of each
	// simulated tick, and where newly attached drop tracers register.
	telReg  *telemetry.Registry
	tickDur *telemetry.Histogram
	ticks   *telemetry.Counter
}

// New builds an empty cluster with the given tick size (sim.DefaultTick if
// dt <= 0). It ticks on one domain with one worker, whose phases range over
// every host and machine present at tick time, so placement stays open
// until Parallelize.
func New(dt time.Duration) *Cluster {
	c := &Cluster{
		machines:   make(map[core.MachineID]*machine.Machine),
		hosts:      make(map[string]*Host),
		routes:     make(map[dataplane.FlowID]route),
		pending:    make(map[core.MachineID][]dataplane.Batch),
		next:       make(map[core.MachineID][]dataplane.Batch),
		registries: make(map[core.MachineID]*stats.Registry),
		topo:       core.NewTopology(),
	}
	c.eng = c.newEngine(dt, 1, 1, 0)
	d := c.eng.Domain(0)
	d.AddFunc(0, func(now, dt time.Duration) { c.hostRange(0, len(c.hostOrder), now, dt) })
	d.AddFunc(1, func(now, dt time.Duration) { c.machineRange(0, len(c.machineOrder), now, dt) })
	return c
}

// newEngine returns a two-phase engine whose serial stages run the
// cluster's pre tickers and commit, timing the whole tick when telemetry
// is on. The caller registers the host (0) and machine (1) phases.
func (c *Cluster) newEngine(dt time.Duration, domains, workers int, seed uint64) *sim.ParallelEngine {
	e := sim.NewParallelEngine(dt, domains, 2, workers, seed)
	e.AddPreFunc(func(now, dt time.Duration) {
		if c.tickDur != nil {
			c.tickStart = time.Now()
		}
		for _, t := range c.pre {
			t.Tick(now, dt)
		}
	})
	e.AddCommitFunc(func(now, dt time.Duration) {
		c.commit(now, dt)
		if c.tickDur != nil {
			c.tickDur.Observe(float64(time.Since(c.tickStart).Nanoseconds()))
			c.ticks.Inc()
		}
	})
	return e
}

// Now returns current virtual time.
func (c *Cluster) Now() time.Duration { return c.eng.Now() }

// NowNS returns current virtual time in nanoseconds (record timestamps).
func (c *Cluster) NowNS() int64 { return int64(c.Now()) }

// Dt returns the tick size.
func (c *Cluster) Dt() time.Duration { return c.eng.Dt() }

// Run advances virtual time by d (whole ticks, rounded up — see
// sim.ParallelEngine.Run).
func (c *Cluster) Run(d time.Duration) { c.eng.Run(d) }

// Parallelize shards the cluster across `domains` tick domains advanced by
// a pool of `workers` goroutines. Hosts run in parallel phase 0, machines
// in parallel phase 1, and the cross-domain merge stays in the serialized
// commit, so trajectories are byte-identical to the default engine for the
// same scenario at any worker count. Each domain gets its own RNG stream
// derived from seed.
//
// Call once, after the topology is built and before Run: machine/host
// placement is frozen (VM placement, routes and connections stay dynamic —
// they only touch commit-phase structures). Call Close when done to stop
// the worker pool.
func (c *Cluster) Parallelize(domains, workers int, seed uint64) *sim.ParallelEngine {
	if c.frozen {
		panic("cluster: Parallelize called twice")
	}
	if c.eng.Now() != 0 {
		panic("cluster: Parallelize must be called before Run")
	}
	e := c.newEngine(c.eng.Dt(), domains, workers, seed)
	for j, p := range sim.Partition(len(c.hostOrder), e.Domains()) {
		from, to := p[0], p[1]
		e.Domain(j).AddFunc(0, func(now, dt time.Duration) { c.hostRange(from, to, now, dt) })
	}
	for j, p := range sim.Partition(len(c.machineOrder), e.Domains()) {
		from, to := p[0], p[1]
		e.Domain(j).AddFunc(1, func(now, dt time.Duration) { c.machineRange(from, to, now, dt) })
	}
	c.eng = e
	c.frozen = true
	return e
}

// Close stops the engine and its worker pool, if any. It is idempotent,
// and it ends the cluster's clock: Run after Close panics, on the default
// engine as on a parallelized one. Now, Dt and every read of cluster state
// keep working.
func (c *Cluster) Close() { c.eng.Close() }

// AddPreTick registers a ticker that runs serialized before the tick's
// parallel phases — the place for chaos injectors and scenario actuators
// that mutate machines.
func (c *Cluster) AddPreTick(t sim.Ticker) { c.pre = append(c.pre, t) }

// AddPostTick registers a ticker that runs serialized at the end of the
// commit phase (after routing, feedback and window refresh).
func (c *Cluster) AddPostTick(t sim.Ticker) { c.post = append(c.post, t) }

// AddPostTickFunc registers a commit-tail function ticker.
func (c *Cluster) AddPostTickFunc(f func(now, dt time.Duration)) { c.AddPostTick(sim.TickerFunc(f)) }

// AddMachine creates a physical machine.
func (c *Cluster) AddMachine(cfg machine.Config) *machine.Machine {
	if c.frozen {
		panic("cluster: AddMachine after Parallelize (placement is frozen)")
	}
	if _, dup := c.machines[cfg.ID]; dup {
		panic(fmt.Sprintf("cluster: duplicate machine %s", cfg.ID))
	}
	m := machine.New(cfg)
	c.machines[cfg.ID] = m
	c.machineOrder = append(c.machineOrder, cfg.ID)
	c.registries[cfg.ID] = stats.NewRegistry()
	return m
}

// Machine returns a machine by ID.
func (c *Cluster) Machine(id core.MachineID) *machine.Machine { return c.machines[id] }

// Machines returns machine IDs in creation order.
func (c *Cluster) Machines() []core.MachineID {
	return append([]core.MachineID(nil), c.machineOrder...)
}

// AddHost creates an external host with the given access-link rate
// (0 = unlimited).
func (c *Cluster) AddHost(name string, linkBps float64) *Host {
	if c.frozen {
		panic("cluster: AddHost after Parallelize (placement is frozen)")
	}
	if _, dup := c.hosts[name]; dup {
		panic(fmt.Sprintf("cluster: duplicate host %s", name))
	}
	h := &Host{Name: name, LinkBps: linkBps, inboxCap: 4 << 20}
	c.hosts[name] = h
	c.hostOrder = append(c.hostOrder, name)
	return h
}

// Host returns a host by name.
func (c *Cluster) Host(name string) *Host { return c.hosts[name] }

// PlaceVM places a VM and registers its elements with the machine's agent
// registry.
func (c *Cluster) PlaceVM(m core.MachineID, vm core.VMID, vcpus, vnicBps float64, apps ...machine.App) *machine.VM {
	mm := c.machines[m]
	if mm == nil {
		panic(fmt.Sprintf("cluster: unknown machine %s", m))
	}
	v := mm.AddVM(vm, vcpus, vnicBps, apps...)
	c.syncRegistry(m)
	return v
}

// MigrateVM removes a VM from one machine (the §7.3 operator response to
// contention). Traffic must be re-routed by the caller.
func (c *Cluster) MigrateVM(from core.MachineID, vm core.VMID) {
	if mm := c.machines[from]; mm != nil {
		mm.RemoveVM(vm)
		c.syncRegistry(from)
	}
}

// syncRegistry rebuilds a machine's element registry after placement
// changes.
func (c *Cluster) syncRegistry(m core.MachineID) {
	reg := c.registries[m]
	if reg == nil {
		return
	}
	for _, e := range reg.List() {
		reg.Unregister(e.ID())
	}
	for _, e := range c.machines[m].Elements() {
		reg.Register(e)
	}
}

// EnableDropTracing attaches a drop tracer to a machine's stack and
// returns it; capacity bounds the retained event ring (<= 0 picks the
// dataplane default — read it back with Capacity()). With cluster
// telemetry on, the tracer's event/ring gauges register automatically.
func (c *Cluster) EnableDropTracing(m core.MachineID, capacity int) *dataplane.DropTracer {
	mm := c.machines[m]
	if mm == nil {
		return nil
	}
	tr := dataplane.NewDropTracer(capacity)
	mm.Stack.AttachTracer(tr)
	if c.telReg != nil {
		tr.RegisterMetrics(c.telReg, string(m))
	}
	return tr
}

// EnableTelemetry wires the cluster's self-metrics into reg: wall-clock
// duration of each simulated tick (the stack-tick hot path) plus
// machine/host inventory gauges. Call before Run; tracers attached by
// EnableDropTracing afterwards register their gauges in the same reg.
func (c *Cluster) EnableTelemetry(reg *telemetry.Registry) *Cluster {
	c.telReg = reg
	c.tickDur = reg.Histogram("perfsight_dataplane_tick_duration_ns",
		"wall-clock cost of one simulated cluster tick, nanoseconds")
	c.ticks = reg.Counter("perfsight_dataplane_ticks_total",
		"simulated cluster ticks executed")
	reg.GaugeFunc("perfsight_dataplane_machines",
		"physical machines in the cluster", func() float64 {
			return float64(len(c.machines))
		})
	reg.GaugeFunc("perfsight_dataplane_hosts",
		"external hosts in the cluster", func() float64 {
			return float64(len(c.hosts))
		})
	reg.GaugeFunc("perfsight_dataplane_virtual_seconds",
		"simulated time elapsed", func() float64 {
			return c.Now().Seconds()
		})
	return c
}

// Registry returns the per-machine element registry the agent serves.
func (c *Cluster) Registry(m core.MachineID) *stats.Registry { return c.registries[m] }

// Topology returns the tenant topology for the controller.
func (c *Cluster) Topology() *core.Topology { return c.topo }

// AssignStack assigns every virtualization-stack element of machine m to
// the tenant (contending tenants share these).
func (c *Cluster) AssignStack(tid core.TenantID, m core.MachineID) {
	mm := c.machines[m]
	net := c.topo.Net(tid)
	for _, e := range mm.Stack.Elements() {
		net.Add(e.ID(), core.ElementInfo{Machine: m, Kind: e.Kind()})
	}
	net.Add(mm.HostElement().ID(), core.ElementInfo{Machine: m, Kind: core.KindUnknown})
}

// AssignVM assigns a VM's per-VM elements (TUN, QEMU, guest, apps) to the
// tenant.
func (c *Cluster) AssignVM(tid core.TenantID, m core.MachineID, vm core.VMID) {
	mm := c.machines[m]
	v := mm.VM(vm)
	if v == nil {
		return
	}
	net := c.topo.Net(tid)
	for _, e := range v.Stack.Elements() {
		net.Add(e.ID(), core.ElementInfo{Machine: m, Kind: e.Kind()})
	}
	for _, a := range v.Apps {
		rec := a.Snapshot(0)
		net.Add(a.ID(), core.ElementInfo{
			Machine:     m,
			Kind:        core.KindMiddlebox,
			CapacityBps: rec.GetOr(core.AttrCapacityBps, 0),
		})
	}
}

// AddChain records a tenant's middlebox chain (traversal order) for
// Algorithm 2.
func (c *Cluster) AddChain(tid core.TenantID, chain ...core.ElementID) {
	net := c.topo.Net(tid)
	net.Chains = append(net.Chains, chain)
}

// RouteFlow installs wire routing and switch rules so flow f travels from
// src to dst. It must be called before traffic is generated on f.
func (c *Cluster) RouteFlow(f dataplane.FlowID, src, dst Endpoint) {
	if dst.IsHost() {
		c.routes[f] = route{host: dst.Host}
	} else {
		c.routes[f] = route{machine: dst.Machine}
		mm := c.machines[dst.Machine]
		if mm == nil {
			panic(fmt.Sprintf("cluster: route %s to unknown machine %s", f, dst.Machine))
		}
		mm.Stack.VSwitch.InstallToVM(f, dst.VM)
	}
	if !src.IsHost() {
		sm := c.machines[src.Machine]
		if sm == nil {
			panic(fmt.Sprintf("cluster: route %s from unknown machine %s", f, src.Machine))
		}
		if dst.IsHost() || dst.Machine != src.Machine {
			sm.Stack.VSwitch.InstallToPNIC(f)
		}
		// Same-machine VM-to-VM: the destination rule above already routes
		// the flow from the backlog to the target TUN.
	}
}

// RerouteFlow points an existing flow at a new destination (scale-out /
// migration). The old destination's switch rule is removed.
func (c *Cluster) RerouteFlow(f dataplane.FlowID, src, newDst Endpoint) {
	if r, ok := c.routes[f]; ok && r.machine != "" {
		if mm := c.machines[r.machine]; mm != nil {
			mm.Stack.VSwitch.Remove(f)
		}
	}
	c.RouteFlow(f, src, newDst)
}

// Connect creates a stream connection on flow f from src to dst, with
// routing installed. Endpoints resolve lazily, so conns may be created
// before their VMs are placed (apps usually take their output conns at
// construction) and keep working across migration. The sender side must
// pump the conn (VM apps pump their own conns; host-side conns are pumped
// by the host each tick).
func (c *Cluster) Connect(f dataplane.FlowID, src, dst Endpoint, cfg stream.Config) *stream.Conn {
	c.RouteFlow(f, src, dst)
	var emit stream.Emitter
	if src.IsHost() {
		h := c.hosts[src.Host]
		if h == nil {
			panic(fmt.Sprintf("cluster: Connect %s from unknown host %s", f, src.Host))
		}
		emit = h.emit
	} else {
		emit = func(b dataplane.Batch) int64 {
			vs := c.machines[src.Machine].VM(src.VM)
			if vs == nil {
				return 0
			}
			b.Egress = true
			return vs.Stack.Socket.Write(b)
		}
	}
	var rwnd stream.Window
	if dst.IsHost() {
		h := c.hosts[dst.Host]
		if h == nil {
			panic(fmt.Sprintf("cluster: Connect %s to unknown host %s", f, dst.Host))
		}
		rwnd = h
	} else {
		w := &vmWindow{c: c, m: dst.Machine, vm: dst.VM}
		w.refresh(c.Now()) // prime so first-tick pumps see a real window
		c.windows = append(c.windows, w)
		rwnd = w
	}
	conn := stream.NewConn(f, cfg, emit, rwnd)
	// Batches on this flow may be delivered/dropped by concurrently-ticking
	// shards; queue the feedback and settle it in commit, so trajectories
	// stay identical at any domain and worker count.
	conn.DeferFeedback()
	c.conns = append(c.conns, conn)
	if src.IsHost() {
		c.hosts[src.Host].pump = append(c.hosts[src.Host].pump, conn)
	}
	return conn
}

// vmWindow caches a VM's socket receive window, clamped to the
// per-connection rmem and refreshed at ACK cadence — but only from the
// serialized commit phase, when every machine's tick has settled. During
// the phases RxFree returns the cached advertisement, so a sender in one
// tick domain never reads a destination socket another domain is mutating.
// This is also the physically faithful model: window updates ride ACKs,
// they are not a live view of the receiver.
type vmWindow struct {
	c  *Cluster
	m  core.MachineID
	vm core.VMID

	lastVal    int64
	lastUpdate time.Duration
	primed     bool
}

// RxFree implements stream.Window: the window advertised by the last ACK.
func (w *vmWindow) RxFree() int64 { return w.lastVal }

// ackDelay is how stale the receive window a sender acts on may be:
// window updates ride ACKs, one RTT behind. Senders overshooting a stale
// window is what lets a slow VM's TUN overflow before flow control catches
// up, as on real TCP (DESIGN.md §5).
const ackDelay = 2 * time.Millisecond

// refresh re-reads the destination socket at commit. Staleness contract:
// senders act on a window at least one tick old (the refresh-to-use gap)
// and at most ackDelay old, frozen entirely while the guest cannot poll
// its ring (it cannot ACK either); immediate once the VM exists but the
// cache was never primed. One tick of the ackDelay budget is consumed by
// the commit-to-read gap itself, so the cadence gate only withholds
// refreshes beyond that.
func (w *vmWindow) refresh(now time.Duration) {
	if w.primed && now-w.lastUpdate < ackDelay-w.c.Dt() {
		return
	}
	mm := w.c.machines[w.m]
	if mm == nil {
		w.lastVal = 0
		w.primed = false
		return
	}
	vs := mm.VM(w.vm)
	if vs == nil {
		w.lastVal = 0
		w.primed = false
		return
	}
	if w.primed && vs.Stack.KernelBehind() {
		// A guest that cannot poll its ring cannot send ACKs or window
		// updates either: senders keep acting on the last advertised
		// window, which is how a starved VM's TUN overflows before flow
		// control reacts.
		return
	}
	free := vs.Stack.Socket.RxFree()
	clamp := w.c.RmemPerConn
	if clamp <= 0 {
		clamp = 1 << 20
	}
	if free > clamp {
		free = clamp
	}
	w.lastVal = free
	w.lastUpdate = now
	w.primed = true
}

// hostRange ticks hosts [from, to) in creation order: external hosts
// generate and pump. Hosts only touch their own queues and conns, so
// disjoint ranges may run concurrently (parallel phase 0).
func (c *Cluster) hostRange(from, to int, now, dt time.Duration) {
	for _, hn := range c.hostOrder[from:to] {
		c.hosts[hn].tick(now, dt)
	}
}

// machineRange ticks machines [from, to) in creation order: each consumes
// last tick's wire arrivals (OfferWire) and runs its pipeline. A machine
// tick reads and writes only its own stack — cross-machine effects are
// declared through the OfferWire/CollectWire exchange and settle at commit
// — so disjoint ranges may run concurrently (parallel phase 1).
func (c *Cluster) machineRange(from, to int, now, dt time.Duration) {
	for _, mid := range c.machineOrder[from:to] {
		m := c.machines[mid]
		if arr := c.pending[mid]; len(arr) > 0 {
			m.OfferWire(arr, dt)
		}
		m.Tick(now, dt)
	}
}

// commit is the serialized merge that ends every tick: collect departures
// in canonical order (hosts, then machines, each in creation order), route
// them, settle deferred connection feedback in canonical order, refresh
// receive-window caches from settled socket state, then run post tickers.
func (c *Cluster) commit(now, dt time.Duration) {
	next := c.next
	for mid, arr := range next {
		next[mid] = arr[:0]
	}
	for _, hn := range c.hostOrder {
		for _, b := range c.hosts[hn].drainOut() {
			c.routeBatch(b, next)
		}
	}
	for _, mid := range c.machineOrder {
		for _, b := range c.machines[mid].CollectWire() {
			c.routeBatch(b, next)
		}
	}
	c.pending, c.next = next, c.pending
	for _, cn := range c.conns {
		cn.FlushFeedback()
	}
	for _, w := range c.windows {
		w.refresh(now)
	}
	for _, t := range c.post {
		t.Tick(now, dt)
	}
}

// routeBatch delivers a wire batch toward its flow's destination.
func (c *Cluster) routeBatch(b dataplane.Batch, next map[core.MachineID][]dataplane.Batch) {
	r, ok := c.routes[b.Flow]
	if !ok {
		// Unrouted wire traffic disappears into the fabric; flows are
		// notified so closed loops do not hang.
		b.NotifyDropped("fabric/unrouted")
		return
	}
	if r.host != "" {
		c.hosts[r.host].deliver(b)
		return
	}
	next[r.machine] = append(next[r.machine], b)
}
