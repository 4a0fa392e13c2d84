package stream_test

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"perfsight/internal/cluster"
	"perfsight/internal/core"
	"perfsight/internal/dataplane"
	"perfsight/internal/machine"
	"perfsight/internal/middlebox"
	"perfsight/internal/stream"
)

// TestFeedbackQueueNeverGrows runs the benchmark's sim-fleet shape (sink
// VMs fed by one external host per machine, staggered load with a seeded
// ±10 % spread per flow, one VM in eight machines offered 1.5× its vNIC
// rate, flow sketches on) and checks that no connection's deferred
// feedback queue ever outgrew the capacity DeferFeedback gave it: no tick
// queued more than FeedbackPerTick events on one connection.
func TestFeedbackQueueNeverGrows(t *testing.T) {
	const (
		machines, vms, flows = 8, 4, 4
		vnicBps              = 1e9
		ticks                = 1000
	)
	for _, seed := range []int64{1, 7} {
		rng := rand.New(rand.NewSource(seed))
		c := cluster.New(time.Millisecond)
		var conns []*stream.Conn
		for i := 0; i < machines; i++ {
			mid := core.MachineID(fmt.Sprintf("m%03d", i))
			m := c.AddMachine(machine.DefaultConfig(mid))
			m.Stack.VSwitch.EnableFlowSketch(dataplane.SketchConfig{})
			hn := fmt.Sprintf("h%03d", i)
			host := c.AddHost(hn, 0)
			hotVM := -1
			if i%8 == 0 {
				hotVM = rng.Intn(vms)
			}
			for v := 0; v < vms; v++ {
				vm := core.VMID(fmt.Sprintf("vm%d", v))
				c.PlaceVM(mid, vm, 1.0, vnicBps, middlebox.NewSink(core.ElementID(fmt.Sprintf("%s/%s/app", mid, vm)), vnicBps))
				perVM := 200e6 * (0.5 + 0.25*float64(i%4))
				if v == hotVM {
					perVM = 1.5 * vnicBps
				}
				for j := 0; j < flows; j++ {
					conn := c.Connect(dataplane.FlowID(fmt.Sprintf("f%03d-%d-%d", i, v, j)),
						cluster.HostEndpoint(hn), cluster.VMEndpoint(mid, vm), stream.Config{})
					host.AddSource(conn, perVM/flows*(0.9+0.2*rng.Float64()))
					conns = append(conns, conn)
				}
			}
		}
		c.Run(ticks * time.Millisecond)
		var lost int64
		for _, conn := range conns {
			lost += conn.Stats().Lost
			if got := stream.FeedbackCap(conn); got != stream.FeedbackPerTick {
				t.Errorf("seed %d: %s feedback queue capacity %d after %d ticks; want %d", seed, conn.Flow(), got, ticks, stream.FeedbackPerTick)
			}
		}
		if lost == 0 {
			t.Errorf("seed %d: no loss anywhere, so no tick queued drops", seed)
		}
	}
}
