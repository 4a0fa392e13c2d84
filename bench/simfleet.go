package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"perfsight/internal/cluster"
	"perfsight/internal/core"
	"perfsight/internal/dataplane"
	"perfsight/internal/machine"
	"perfsight/internal/middlebox"
	"perfsight/internal/stream"
)

// simFleetSize sizes the sim-fleet workload.
type simFleetSize struct {
	Machines int           `json:"machines"`
	VMs      int           `json:"vms_per_machine"`
	Flows    int           `json:"flows_per_vm"`
	Tick     time.Duration `json:"tick_ns"`
	Warmup   time.Duration `json:"warmup_ns"`
	Setups   int           `json:"setups"` // set-up repetitions behind the setup_s median
}

var simFleetFull = simFleetSize{Machines: 64, VMs: 4, Flows: 4,
	Tick: time.Millisecond, Warmup: 100 * time.Millisecond, Setups: 5}

// fleet is one built instance of the sim-fleet scenario.
type fleet struct {
	c       *cluster.Cluster
	sources []*cluster.HostSource // one per flow; sources[i] writes conns[i]
	conns   []*stream.Conn
}

// buildFleet generates the scenario from the seed: every machine hosts
// sink VMs fed by its own external host, offered load is staggered across
// machines (so tick domains do unequal work) with a seeded ±10 % spread
// per flow, and one seeded VM in every eight machines is offered 1.5× its
// vNIC rate so the drop paths run too. Each vswitch feeds a flow sketch,
// as the agent binary's default -flow-stats=sketch makes it.
func buildFleet(seed uint64, sz simFleetSize) *fleet {
	rng := rand.New(rand.NewSource(int64(seed)))
	const vnicBps = 1e9
	f := &fleet{c: cluster.New(sz.Tick)}
	for i := 0; i < sz.Machines; i++ {
		mid := core.MachineID(fmt.Sprintf("m%03d", i))
		m := f.c.AddMachine(machine.DefaultConfig(mid))
		m.Stack.VSwitch.EnableFlowSketch(dataplane.SketchConfig{})
		hn := fmt.Sprintf("h%03d", i)
		host := f.c.AddHost(hn, 0)
		hotVM := -1
		if i%8 == 0 {
			hotVM = rng.Intn(sz.VMs)
		}
		for v := 0; v < sz.VMs; v++ {
			vm := core.VMID(fmt.Sprintf("vm%d", v))
			sink := middlebox.NewSink(core.ElementID(fmt.Sprintf("%s/%s/app", mid, vm)), vnicBps)
			f.c.PlaceVM(mid, vm, 1.0, vnicBps, sink)
			perVM := 200e6 * (0.5 + 0.25*float64(i%4))
			if v == hotVM {
				perVM = 1.5 * vnicBps
			}
			for j := 0; j < sz.Flows; j++ {
				conn := f.c.Connect(dataplane.FlowID(fmt.Sprintf("f%03d-%d-%d", i, v, j)),
					cluster.HostEndpoint(hn), cluster.VMEndpoint(mid, vm), stream.Config{})
				rate := perVM / float64(sz.Flows) * (0.9 + 0.2*rng.Float64())
				f.sources = append(f.sources, host.AddSource(conn, rate))
				f.conns = append(f.conns, conn)
			}
		}
	}
	return f
}

// trajectoryHash digests every connection's transport counters and every
// element's counters. Two same-seed fleets advanced the same number of
// ticks hash identically; one misrouted batch changes it.
func (f *fleet) trajectoryHash() uint64 {
	h := fnv.New64a()
	var b [8]byte
	w := func(vals ...int64) {
		for _, v := range vals {
			binary.LittleEndian.PutUint64(b[:], uint64(v))
			h.Write(b[:])
		}
	}
	for _, conn := range f.conns {
		h.Write([]byte(conn.Flow()))
		st := conn.Stats()
		w(st.Delivered, st.Lost, st.InFlight, st.Cwnd, st.Buffered)
	}
	for _, mid := range f.c.Machines() {
		els := f.c.Machine(mid).Elements()
		sort.Slice(els, func(i, j int) bool { return els[i].ID() < els[j].ID() })
		for _, e := range els {
			rec := e.Snapshot(0)
			h.Write([]byte(rec.Element))
			for _, a := range rec.Attrs {
				w(int64(a.ID), int64(math.Float64bits(a.Value)))
			}
		}
	}
	return h.Sum64()
}

// checkConservation fails every flow whose bytes are not all accounted
// for: what the source wrote must equal what was delivered, is in flight,
// or still waits (unsent, or awaiting retransmission after a loss).
func (f *fleet) checkConservation(out *outcome) {
	bad := 0
	for i, conn := range f.conns {
		st := conn.Stats()
		if f.sources[i].GeneratedBytes() != st.Delivered+st.InFlight+st.Buffered {
			bad++
		}
	}
	out.attempted += int64(len(f.conns))
	out.failed += int64(bad)
	if bad > 0 {
		out.fail("%d of %d flows break conservation (written != delivered + in flight + waiting)", bad, len(f.conns))
	}
}

// checkHashes fails the run when fleets built from one seed and advanced
// to the same checkpoint do not share a trajectory hash.
func checkHashes(out *outcome, hashes []uint64, checkpoint time.Duration) {
	out.attempted++
	for _, h := range hashes[1:] {
		if h != hashes[0] {
			out.failed++
			out.fail("same-seed fleets diverged by the %v checkpoint: hashes %x", checkpoint, hashes)
			return
		}
	}
}

// tickFor advances the fleet one tick at a time for d of wall time,
// metering every tick as one op per machine, and returns each tick's wall
// cost in ms.
func (f *fleet) tickFor(d time.Duration, tick time.Duration, sl *slices, each func(run func())) samples {
	var out samples
	run := func() { f.c.Run(tick) }
	machines := float64(len(f.c.Machines()))
	for deadline := time.Now().Add(d); time.Now().Before(deadline); {
		sl.start()
		each(run)
		out = append(out, ms(sl.stop(machines)))
	}
	return out
}

func direct(run func()) { run() }

func runSimFleet(o options, sz simFleetSize) (*outcome, error) {
	out := newOutcome(sz)

	// Set-up: build the fleet and run the warm-up. Every build uses the
	// same seed, so their checkpoint hashes must agree; the last one built
	// is the one that gets timed.
	var hashes []uint64
	hash := func(f *fleet) { hashes = append(hashes, f.trajectoryHash()) }
	f, setups, _ := setUp(sz.Setups, func() (*fleet, error) {
		f := buildFleet(o.seed, sz)
		f.c.Run(sz.Warmup)
		return f, nil
	}, func(f *fleet) {
		hash(f)
		f.c.Close()
	})
	defer f.c.Close()
	hash(f)
	checkHashes(out, hashes, sz.Warmup)

	if !o.trace {
		var sl slices
		ticks := f.tickFor(o.window(1), sz.Tick, &sl, direct)
		f.checkConservation(out)
		out.samples["op_ms_p50"] = describe(ticks, "ms")
		out.set("setup_s", setups.sorted().quantile(0.5))
		out.set("op_ms_p50", ticks.sorted().quantile(0.5))
		sl.report(out)
		out.set("heap_retained_mb", heapLiveMB())
		runtime.KeepAlive(f)
		return out, nil
	}

	// Traced run: an untraced slice for the CPU base, the same loop under
	// the recorder, the parallel engine on a same-seed fleet, and
	// VSwitch.Count alone over this fleet's flows.
	var base slices
	f.tickFor(o.window(0.3), sz.Tick, &base, direct)
	_, baseCPU := base.medians()

	rec := newRecorder(spanClusterRun)
	var traced slices
	n := len(f.tickFor(o.window(0.3), sz.Tick, &traced, func(run func()) {
		rec.nextRound()
		rec.time(spanClusterRun, run)
	}))
	layers := layerMap(selfTimes(rec.spans))
	out.layers = layers
	serialNS := layers.nsPer(spanClusterRun, n*sz.Machines)
	out.set("cluster.tick_ns_per_machine", serialNS)
	out.set("cluster.allocs_per_tick", layers.allocsPer(spanClusterRun, n))
	out.set("transport.residual_us_per_update", baseCPU-serialNS/1e3)

	pf := buildFleet(o.seed, sz)
	pf.c.Parallelize(8, runtime.NumCPU(), o.seed)
	defer pf.c.Close()
	pf.c.Run(sz.Warmup)
	var par slices
	n = len(pf.tickFor(o.window(0.3), sz.Tick, &par, direct))
	parNS := float64(par.m.wall) / float64(n*sz.Machines)
	out.set("cluster.parallel_tick_ns_per_machine", parNS)
	out.set("cluster.parallel_speedup", ratio(serialNS, parNS))

	out.set("dataplane.vswitch_count_ns", vswitchCountNS(f, o.window(0.05)))
	return out, writeTrace(o.tracePath("sim-fleet"), traceFile{Workload: "sim-fleet", Seed: o.seed, Spans: rec.spans})
}

// vswitchCountNS times VSwitch.Count alone, looping over the rules the
// first machine's flows installed, and returns ns per call.
func vswitchCountNS(f *fleet, d time.Duration) float64 {
	vs := f.c.Machine(f.c.Machines()[0]).Stack.VSwitch
	rules := vs.Rules()
	b := dataplane.Batch{Packets: 8, Bytes: 8 * 1448}
	calls := 0
	start := time.Now()
	for time.Since(start) < d {
		for _, r := range rules {
			b.Flow = r.Flow
			vs.Count(r, b)
		}
		calls += len(rules)
	}
	return float64(time.Since(start)) / float64(calls)
}
