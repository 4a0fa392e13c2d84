package cluster

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"

	"perfsight/internal/core"
	"perfsight/internal/dataplane"
	"perfsight/internal/machine"
	"perfsight/internal/middlebox"
	"perfsight/internal/stream"
)

// loadedFleet is the benchmark's sim-fleet scenario (bench/simfleet.go
// buildFleet) at test size: every machine hosts sink VMs fed by its own
// external host, offered load is staggered across machines with a seeded
// ±10 % spread per flow, one seeded VM in every eight machines is offered
// 1.5× its vNIC rate so the drop paths run, and every vswitch feeds a flow
// sketch.
type loadedFleet struct {
	c     *Cluster
	conns []*stream.Conn
}

func buildLoadedFleet(machines, vms, flows int) *loadedFleet {
	rng := rand.New(rand.NewSource(1))
	const vnicBps = 1e9
	f := &loadedFleet{c: New(time.Millisecond)}
	for i := 0; i < machines; i++ {
		mid := core.MachineID(fmt.Sprintf("m%03d", i))
		m := f.c.AddMachine(machine.DefaultConfig(mid))
		m.Stack.VSwitch.EnableFlowSketch(dataplane.SketchConfig{})
		hn := fmt.Sprintf("h%03d", i)
		host := f.c.AddHost(hn, 0)
		hotVM := -1
		if i%8 == 0 {
			hotVM = rng.Intn(vms)
		}
		for v := 0; v < vms; v++ {
			vm := core.VMID(fmt.Sprintf("vm%d", v))
			sink := middlebox.NewSink(core.ElementID(fmt.Sprintf("%s/%s/app", mid, vm)), vnicBps)
			f.c.PlaceVM(mid, vm, 1.0, vnicBps, sink)
			perVM := 200e6 * (0.5 + 0.25*float64(i%4))
			if v == hotVM {
				perVM = 1.5 * vnicBps
			}
			for j := 0; j < flows; j++ {
				conn := f.c.Connect(dataplane.FlowID(fmt.Sprintf("f%03d-%d-%d", i, v, j)),
					HostEndpoint(hn), VMEndpoint(mid, vm), stream.Config{})
				host.AddSource(conn, perVM/float64(flows)*(0.9+0.2*rng.Float64()))
				f.conns = append(f.conns, conn)
			}
		}
	}
	return f
}

// digest hashes every connection's transport counters and every element's
// snapshot attributes, as the benchmark's trajectoryHash does: one
// misrouted, reordered or differently split batch changes it.
func (f *loadedFleet) digest() uint64 {
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

// TestLoadedFleetTrajectoryPinned pins the loaded trajectory across
// commits: the digests were recorded at the commit before the tick was made
// allocation-free, on the default engine and parallelized, and any change
// to the tick must reproduce them. (TestParallelDeterminismGolden only
// compares engine shapes with each other.) The 8-machine fleet contains a
// hot VM, so TUN overflow, loss feedback and retransmission are in the
// digest.
func TestLoadedFleetTrajectoryPinned(t *testing.T) {
	const (
		ticks  = 300
		pinned = uint64(0x6399735ba89bca0f)
	)
	serial := buildLoadedFleet(8, 4, 4)
	serial.c.Run(ticks * time.Millisecond)
	if got := serial.digest(); got != pinned {
		t.Errorf("serial digest after %d ticks = %#016x; pinned %#016x", ticks, got, pinned)
	}
	var lost int64
	for _, conn := range serial.conns {
		lost += conn.Stats().Lost
	}
	if lost == 0 {
		t.Error("no loss anywhere: the pinned fleet no longer exercises its drop paths")
	}

	par := buildLoadedFleet(8, 4, 4)
	par.c.Parallelize(4, 4, 1)
	defer par.c.Close()
	par.c.Run(ticks * time.Millisecond)
	if got := par.digest(); got != pinned {
		t.Errorf("parallel@4 digest after %d ticks = %#016x; pinned %#016x", ticks, got, pinned)
	}
}

// TestLoadedTickAllocBudget pins what a loaded machine tick allocates in
// steady state, on both engines: the sim-fleet shape at 2 machines × 4 sink
// VMs × 4 flows, sketch on, one VM offered 1.5× its vNIC rate, after 100
// warm-up ticks (queues, scratch slices and the stream layer's segment
// lists have reached their working size by then). The empty-engine gate in
// internal/sim guards the engines' own dispatch; this one guards the
// dataplane, machine and wire-exchange work a tick exists to do.
func TestLoadedTickAllocBudget(t *testing.T) {
	const (
		machines = 2
		budget   = 0 // allocations per machine-tick
	)
	for _, engine := range []string{"serial", "parallel"} {
		f := buildLoadedFleet(machines, 4, 4)
		if engine == "parallel" {
			f.c.Parallelize(2, 2, 1)
		}
		f.c.Run(100 * time.Millisecond)
		got := testing.AllocsPerRun(200, func() { f.c.Run(time.Millisecond) }) / machines
		f.c.Close()
		t.Logf("%s loaded tick allocs/machine-tick = %.2f (budget %d)", engine, got, budget)
		if got > budget {
			t.Errorf("%s loaded tick allocs/machine-tick = %.2f exceeds budget %d", engine, got, budget)
		}
	}
}

// BenchmarkLoadedFleetTick measures one tick of the 8-machine loaded fleet
// (ns and allocations per whole-cluster tick; divide by 8 for the
// benchmark's per-machine-tick op).
func BenchmarkLoadedFleetTick(b *testing.B) {
	for _, engine := range []string{"serial", "parallel"} {
		b.Run(engine, func(b *testing.B) {
			f := buildLoadedFleet(8, 4, 4)
			if engine == "parallel" {
				f.c.Parallelize(4, 2, 1)
			}
			defer f.c.Close()
			f.c.Run(100 * time.Millisecond)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.c.Run(time.Millisecond)
			}
		})
	}
}
