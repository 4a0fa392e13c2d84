package experiments

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"time"

	"perfsight/internal/core"
	"perfsight/internal/history"
	"perfsight/internal/middlebox"
	"perfsight/internal/stream"

	"perfsight/internal/cluster"
)

// ScaleConfig sizes the parallel-engine scale scenario: a fleet of
// identical machines, each with sink VMs fed by per-machine hosts.
type ScaleConfig struct {
	Machines      int
	VMsPerMachine int
	Domains       int
	Workers       int
	Tick          time.Duration
	Duration      time.Duration
	Seed          uint64
	RatePerVM     float64 // offered load per VM, bps
}

// withDefaults fills zero fields with the 2000-machine scale scenario.
func (c ScaleConfig) withDefaults() ScaleConfig {
	if c.Machines <= 0 {
		c.Machines = 2000
	}
	if c.VMsPerMachine <= 0 {
		c.VMsPerMachine = 1
	}
	if c.Domains <= 0 {
		c.Domains = 8
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Tick <= 0 {
		c.Tick = time.Millisecond
	}
	if c.Duration <= 0 {
		c.Duration = 500 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.RatePerVM <= 0 {
		c.RatePerVM = 200e6
	}
	return c
}

const scaleTenant = core.TenantID("t-scale")

// scaleLab is one built instance of the scale scenario plus the handles
// the trajectory hash walks.
type scaleLab struct {
	l     *Lab
	conns []*stream.Conn
}

// buildScaleLab constructs the scenario; when parallel is true the cluster
// is moved onto the sharded two-phase engine before any tick runs. With
// agents, every machine gets a PerfSight agent (the golden determinism
// test sweeps them into a history store).
func buildScaleLab(cfg ScaleConfig, parallel, agents bool) (*scaleLab, error) {
	l := NewLab(cfg.Tick)
	sl := &scaleLab{l: l}
	for i := 0; i < cfg.Machines; i++ {
		mid := core.MachineID(fmt.Sprintf("m%04d", i))
		l.DefaultMachine(mid)
		host := l.C.AddHost(fmt.Sprintf("h%04d", i), 0)
		for v := 0; v < cfg.VMsPerMachine; v++ {
			vm := core.VMID(fmt.Sprintf("vm%d", v))
			sink := middlebox.NewSink(core.ElementID(fmt.Sprintf("%s/%s/app", mid, vm)), 1e9)
			l.C.PlaceVM(mid, vm, 1.0, 1e9, sink)
			conn := l.C.Connect(flowID(fmt.Sprintf("f%04d-%d", i, v)),
				cluster.HostEndpoint(fmt.Sprintf("h%04d", i)), cluster.VMEndpoint(mid, vm), stream.Config{})
			// Stagger offered load across machines so domains do unequal
			// work — the harder case for deterministic parallel merge.
			host.AddSource(conn, cfg.RatePerVM*(0.5+0.25*float64(i%4)))
			sl.conns = append(sl.conns, conn)
		}
	}
	if agents {
		if err := l.BuildAgents(); err != nil {
			return nil, err
		}
		for i := 0; i < cfg.Machines; i++ {
			mid := core.MachineID(fmt.Sprintf("m%04d", i))
			l.C.AssignStack(scaleTenant, mid)
			for v := 0; v < cfg.VMsPerMachine; v++ {
				l.C.AssignVM(scaleTenant, mid, core.VMID(fmt.Sprintf("vm%d", v)))
			}
		}
	}
	if parallel {
		l.C.Parallelize(cfg.Domains, cfg.Workers, cfg.Seed)
	}
	return sl, nil
}

// trajectoryHash digests the scenario's end state: every connection's
// transport counters in creation order, then every element snapshot of
// every machine in ID order. Two runs that made identical per-tick
// decisions hash identically; any divergence — one misrouted batch, one
// reordered drop — changes it.
func (sl *scaleLab) trajectoryHash() uint64 {
	h := fnv.New64a()
	w := func(vals ...int64) {
		var b [8]byte
		for _, v := range vals {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	for _, conn := range sl.conns {
		h.Write([]byte(conn.Flow()))
		st := conn.Stats()
		w(st.Delivered, st.Lost, st.InFlight, st.Cwnd, st.Buffered)
	}
	for _, mid := range sl.l.C.Machines() {
		m := sl.l.C.Machine(mid)
		hashRecord := func(rec core.Record) {
			h.Write([]byte(rec.Element))
			for _, a := range rec.Attrs {
				w(int64(a.ID), int64(math.Float64bits(a.Value)))
			}
		}
		hashRecord(m.HostElement().Snapshot(0))
		for _, vid := range m.VMs() {
			vm := m.VM(vid)
			hashRecord(vm.Stack.Tun.Snapshot(0))
			hashRecord(vm.Stack.VNic.Snapshot(0))
		}
	}
	return h.Sum64()
}

// sweepToStore fetches every agent's full element set and appends the
// records to the history store — the persistence path the golden
// determinism test hashes.
func (sl *scaleLab) sweepToStore(st *history.Store) error {
	for _, mid := range sl.l.C.Machines() {
		recs, err := sl.l.Agents[mid].Fetch(nil, nil, true)
		if err != nil {
			return fmt.Errorf("sweep %s: %w", mid, err)
		}
		for _, rec := range recs {
			st.Append(scaleTenant, rec)
		}
	}
	return nil
}

// storeHash digests the history store's full sorted dump: every tenant,
// element, attribute and stored point. Byte-identical trajectories produce
// identical store content and so identical hashes.
func storeHash(st *history.Store) uint64 {
	h := fnv.New64a()
	var b [8]byte
	w := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	for _, tid := range st.Tenants() {
		h.Write([]byte(tid))
		for _, eid := range st.Elements(tid) {
			h.Write([]byte(eid))
			for _, attr := range st.Attrs(tid, eid) {
				h.Write([]byte(attr))
				for _, p := range st.Series(tid, eid, attr, 0, math.MaxInt64, 0) {
					w(p.TS)
					w(int64(math.Float64bits(p.V)))
				}
			}
		}
	}
	return h.Sum64()
}

// ScaleResult reports the serial-vs-parallel scale run.
type ScaleResult struct {
	Cfg          ScaleConfig
	SerialWall   time.Duration
	ParallelWall time.Duration
	SerialHash   uint64
	ParallelHash uint64
}

// Speedup is serial wall time over parallel wall time.
func (r *ScaleResult) Speedup() float64 {
	if r.ParallelWall <= 0 {
		return 0
	}
	return float64(r.SerialWall) / float64(r.ParallelWall)
}

// Deterministic reports whether both executions produced byte-identical
// trajectories.
func (r *ScaleResult) Deterministic() bool { return r.SerialHash == r.ParallelHash }

// String renders the scale table row.
func (r *ScaleResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Parallel scale: %d machines x %d VMs, %s sim time, tick %s\n",
		r.Cfg.Machines, r.Cfg.VMsPerMachine, r.Cfg.Duration, r.Cfg.Tick)
	fmt.Fprintf(&sb, "serial    %12s   hash %016x\n", r.SerialWall.Round(time.Millisecond), r.SerialHash)
	fmt.Fprintf(&sb, "parallel  %12s   hash %016x   (%d domains, %d workers)\n",
		r.ParallelWall.Round(time.Millisecond), r.ParallelHash, r.Cfg.Domains, r.Cfg.Workers)
	fmt.Fprintf(&sb, "speedup   %.2fx   deterministic %v\n", r.Speedup(), r.Deterministic())
	return sb.String()
}

// RunScale builds the scenario twice — once on the default one-domain
// serial engine, once sharded — runs both for the configured virtual
// duration, and compares wall time and trajectory hashes.
func RunScale(cfg ScaleConfig) (*ScaleResult, error) {
	cfg = cfg.withDefaults()
	res := &ScaleResult{Cfg: cfg}

	serial, err := buildScaleLab(cfg, false, false)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	serial.l.Run(cfg.Duration)
	res.SerialWall = time.Since(start)
	res.SerialHash = serial.trajectoryHash()
	serial.l.Close()

	par, err := buildScaleLab(cfg, true, false)
	if err != nil {
		return nil, err
	}
	start = time.Now()
	par.l.Run(cfg.Duration)
	res.ParallelWall = time.Since(start)
	res.ParallelHash = par.trajectoryHash()
	par.l.Close()
	return res, nil
}
