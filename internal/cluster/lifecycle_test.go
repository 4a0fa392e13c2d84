package cluster

import (
	"strings"
	"testing"
	"time"

	"perfsight/internal/core"
	"perfsight/internal/dataplane"
	"perfsight/internal/middlebox"
	"perfsight/internal/stream"
	"perfsight/internal/telemetry"
)

// TestDefaultEngineTicksLatePlacement: the default engine's phases range
// over whatever hosts and machines exist at tick time, so a machine, a host
// and VMs added after the clock has started are ticked and carry traffic.
func TestDefaultEngineTicksLatePlacement(t *testing.T) {
	c := New(time.Millisecond)
	defer c.Close()
	c.AddMachine(testMachineCfg("m0"))
	c.Run(10 * time.Millisecond)

	c.AddMachine(testMachineCfg("m1"))
	h := c.AddHost("late", 0)
	sinks := map[core.MachineID]*middlebox.Sink{}
	for _, mid := range []core.MachineID{"m0", "m1"} {
		sink := middlebox.NewSink(core.ElementID(mid+"/vm-late/app"), 1e9)
		c.PlaceVM(mid, "vm-late", 1.0, 1e9, sink)
		conn := c.Connect(dataplane.FlowID("f-late-"+mid), HostEndpoint("late"), VMEndpoint(mid, "vm-late"), stream.Config{})
		h.AddSource(conn, 100e6)
		sinks[mid] = sink
	}
	c.Run(200 * time.Millisecond)
	for mid, sink := range sinks {
		if sink.ReceivedBytes() == 0 {
			t.Errorf("VM placed on %s after Run received nothing", mid)
		}
	}
}

// TestPlacementGuards: the engine swap Parallelize makes is allowed once,
// before the first tick, and freezes machine and host placement.
func TestPlacementGuards(t *testing.T) {
	for _, tc := range []struct {
		name   string
		misuse func(c *Cluster)
		want   string
	}{
		{"Parallelize after Run", func(c *Cluster) {
			c.Run(time.Millisecond)
			c.Parallelize(2, 2, 1)
		}, "before Run"},
		{"Parallelize twice", func(c *Cluster) {
			c.Parallelize(2, 2, 1)
			c.Parallelize(2, 2, 1)
		}, "twice"},
		{"AddMachine after Parallelize", func(c *Cluster) {
			c.Parallelize(2, 2, 1)
			c.AddMachine(testMachineCfg("m9"))
		}, "AddMachine after Parallelize"},
		{"AddHost after Parallelize", func(c *Cluster) {
			c.Parallelize(2, 2, 1)
			c.AddHost("h9", 0)
		}, "AddHost after Parallelize"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New(time.Millisecond)
			defer c.Close()
			c.AddMachine(testMachineCfg("m0"))
			c.AddMachine(testMachineCfg("m1"))
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("no panic")
				}
				if msg, _ := r.(string); !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q; want it to mention %q", r, tc.want)
				}
			}()
			tc.misuse(c)
		})
	}
}

// TestEngineLifecycle, on the default engine and the sharded one: the tick
// telemetry counts every tick exactly once, Close is idempotent, and Close
// ends the clock — virtual time stays readable, Run panics.
func TestEngineLifecycle(t *testing.T) {
	const ticks = 37
	for _, parallel := range []bool{false, true} {
		reg := telemetry.NewRegistry()
		c := New(time.Millisecond).EnableTelemetry(reg)
		c.AddMachine(testMachineCfg("m0"))
		c.AddMachine(testMachineCfg("m1"))
		c.AddHost("h", 0)
		if parallel {
			c.Parallelize(2, 2, 1)
		}
		c.Run(ticks * time.Millisecond)

		count := reg.Counter("perfsight_dataplane_ticks_total", "").Value()
		observed := reg.Histogram("perfsight_dataplane_tick_duration_ns", "").Count()
		if count != ticks || observed != ticks {
			t.Errorf("parallel=%v: ticks_total %d, tick-duration count %d; want %d each", parallel, count, observed, ticks)
		}

		c.Close()
		c.Close()
		if c.Now() != ticks*time.Millisecond {
			t.Errorf("parallel=%v: Now after Close = %v", parallel, c.Now())
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("parallel=%v: Run after Close did not panic", parallel)
				}
			}()
			c.Run(time.Millisecond)
		}()
	}
}
