package experiments

import (
	"fmt"
	"strings"
	"time"

	"perfsight/internal/core"
	"perfsight/internal/diagnosis"
	"perfsight/internal/machine"
)

// Fig10Sample is one timeline point of the backlog-contention experiment.
type Fig10Sample struct {
	T            float64
	Flow1Gbps    float64 // VM1's rate-limited receive throughput
	Flow2Kpps    float64 // VM2's small-packet send rate (delivered)
	EnqueueDrops float64
}

// Fig10Result reproduces §7.2 case 1 (Figure 10): VM1 receives at a
// 500 Mbps limit; at t=10 s VM2 floods small packets as fast as it can.
// The shared pCPU backlog queue (300 packets) is monopolized, VM1's
// throughput collapses and oscillates, and PerfSight's drop counters plus
// the NIC-saturation check identify the backlog queues as the contended
// resource.
type Fig10Result struct {
	Samples []Fig10Sample
	// Before/After are VM1's average throughput before and during the
	// flood.
	BeforeGbps, AfterGbps float64
	// Report is the Algorithm 1 diagnosis during the flood.
	Report *diagnosis.ContentionReport
}

// Correct reports whether diagnosis matched the paper's conclusion.
func (r *Fig10Result) Correct() bool {
	return r.Report != nil &&
		r.Report.TopLocation == diagnosis.LocBacklogEnqueue &&
		r.Report.Inferred == diagnosis.ResourcePCPUBacklog
}

// String renders the timeline and diagnosis.
func (r *Fig10Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 10: pCPU backlog queue contention\n")
	b.WriteString("t(s)  flow1(Gbps)  flow2(Kpkt/s)  enqueue drops\n")
	for _, s := range r.Samples {
		fmt.Fprintf(&b, "%4.1f  %11.3f  %13.0f  %13.0f\n", s.T, s.Flow1Gbps, s.Flow2Kpps, s.EnqueueDrops)
	}
	fmt.Fprintf(&b, "flow1 before flood: %.3f Gbps; during flood: %.3f Gbps\n", r.BeforeGbps, r.AfterGbps)
	if r.Report != nil {
		fmt.Fprintf(&b, "diagnosis: %s\n", r.Report)
		fmt.Fprintf(&b, "NIC check: rx+tx %.0f Mbps of %.0f Mbps capacity (not saturated)\n",
			(r.Report.Evidence.PNICRxBps+r.Report.Evidence.PNICTxBps)/1e6,
			r.Report.Evidence.PNICCapBps/1e6)
	}
	return b.String()
}

// RunFig10 executes the two-VM contention scenario.
func RunFig10() (*Fig10Result, error) {
	cfg := machine.DefaultConfig("m0")
	// A small-packet storm defeats the kernel OVS flow cache: per-packet
	// softirq cost rises toward the upcall path's, so one core cannot
	// drain the backlog and the queue stays saturated.
	cfg.Stack.Costs.NAPICyclesPerPkt = 9000
	const tid = core.TenantID("t1")
	meter := &flowMeter{}
	l, err := NewBacklogFlood(cfg, tid, meter)
	if err != nil {
		return nil, err
	}
	defer l.Close()

	res := &Fig10Result{}
	var prevRx, prevPkts int64
	var prevDrops uint64
	sample := func(step time.Duration) {
		l.Run(step)
		rx := l.Sink.ReceivedBytes()
		pkts := meter.deliveredPkts.Load()
		drops := l.M.Stack.Backlogs.TotalDrops()
		res.Samples = append(res.Samples, Fig10Sample{
			T:            l.C.Now().Seconds(),
			Flow1Gbps:    float64(rx-prevRx) * 8 / step.Seconds() / 1e9,
			Flow2Kpps:    float64(pkts-prevPkts) / step.Seconds() / 1e3,
			EnqueueDrops: float64(drops - prevDrops),
		})
		prevRx, prevPkts, prevDrops = rx, pkts, drops
	}

	for i := 0; i < 20; i++ { // 10 s baseline
		sample(500 * time.Millisecond)
	}
	l.StartFlood()
	for i := 0; i < 4; i++ {
		sample(500 * time.Millisecond)
	}

	// Diagnose during the flood through the agent/controller path. The
	// controller's Wait advances virtual time, so the window is live.
	rep, derr := diagnosis.FindContentionAndBottleneck(l.Ctl, tid, 3*time.Second)
	if derr != nil {
		return nil, derr
	}
	// Resync the per-sample deltas past the diagnosis window.
	prevRx, prevPkts, prevDrops = l.Sink.ReceivedBytes(), meter.deliveredPkts.Load(), l.M.Stack.Backlogs.TotalDrops()
	for i := 0; i < 20; i++ {
		sample(500 * time.Millisecond)
	}
	res.Report = rep

	var before, after float64
	nb, na := 0, 0
	for _, s := range res.Samples {
		if s.T <= 10 {
			before += s.Flow1Gbps
			nb++
		} else if s.T > 12 {
			after += s.Flow1Gbps
			na++
		}
	}
	if nb > 0 {
		res.BeforeGbps = before / float64(nb)
	}
	if na > 0 {
		res.AfterGbps = after / float64(na)
	}
	return res, nil
}
