package experiments

import (
	"testing"
	"time"

	"perfsight/internal/cluster"
	"perfsight/internal/core"
	"perfsight/internal/diagnosis"
	"perfsight/internal/middlebox"
	"perfsight/internal/stream"
)

// TestTranscoderUtilizationMisleads reproduces the §2.3 motivating
// example: a non-blocking video transcoder busy-waits, so its CPU
// utilization reads 100% whether it is the bottleneck or not. Utilization
// monitoring would flag it either way; PerfSight's element statistics must
// not — when the transcoder keeps up there are no drops and no blocked
// neighbours, and only when it truly saturates does it surface as the
// root cause.
func TestTranscoderUtilizationMisleads(t *testing.T) {
	run := func(offeredBps float64) (*diagnosis.ContentionReport, *diagnosis.RootCauseReport, float64) {
		l := NewLab(time.Millisecond)
		defer l.Close()
		l.DefaultMachine("m0")
		const tid = core.TenantID("t1")
		const C = 200e6

		l.C.AddHost("server", 0)
		out := l.C.Connect("tc-out", cluster.VMEndpoint("m0", "vm-tc"), cluster.HostEndpoint("server"), stream.Config{})
		tc := middlebox.NewTranscoder("m0/vm-tc/app", C, middlebox.ConnOutput{C: out})
		l.C.PlaceVM("m0", "vm-tc", 1.0, C, tc)
		client := l.C.AddHost("client", 0)
		for j := 0; j < 4; j++ {
			in := l.C.Connect(flowID("tc-in"+string(rune('0'+j))),
				cluster.HostEndpoint("client"), cluster.VMEndpoint("m0", "vm-tc"), stream.Config{})
			client.AddSource(in, offeredBps/4)
		}
		if err := l.BuildAgents(); err != nil {
			t.Fatal(err)
		}
		l.C.AssignStack(tid, "m0")
		l.C.AssignVM(tid, "m0", "vm-tc")
		l.C.AddChain(tid, "m0/vm-tc/app")

		l.Run(2 * time.Second)
		stack, err := diagnosis.FindContentionAndBottleneck(l.Ctl, tid, 2*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		chain, err := diagnosis.LocateRootCause(l.Ctl, tid, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		host, err := l.Ctl.GetAttr(tid, "m0/host", core.AttrCPUUtil)
		if err != nil {
			t.Fatal(err)
		}
		return stack, chain, host.GetOr(core.AttrCPUUtil, 0)
	}

	// Light load: the transcoder spins (high CPU) but keeps up. A
	// utilization monitor would cry wolf; PerfSight sees a healthy path.
	stack, chain, cpu := run(20e6)
	if cpu < 0.10 {
		t.Fatalf("busy-wait transcoder should look CPU-hungry; machine util %.2f", cpu)
	}
	if stack.TotalLoss != 0 {
		t.Fatalf("light load should be loss-free: %s", stack)
	}
	if chain.Metrics["m0/vm-tc/app"].State != diagnosis.StateNormal {
		t.Fatalf("light-load transcoder state: %v", chain.Metrics["m0/vm-tc/app"].State)
	}

	// Heavy load: now it genuinely saturates (80 cycles/byte on one vCPU
	// is ~31 MB/s) and the dataplane shows it.
	stack, chain, _ = run(190e6)
	saturated := stack.TotalLoss > 0 ||
		(len(chain.RootCauses) == 1 && chain.RootCauses[0] == "m0/vm-tc/app")
	if !saturated {
		t.Fatalf("saturated transcoder not identified: stack=%s chain=%s", stack, chain)
	}
}
