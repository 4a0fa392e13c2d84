package experiments

import (
	"fmt"
	"strings"
	"time"

	"perfsight/internal/cluster"
	"perfsight/internal/core"
	"perfsight/internal/machine"
	"perfsight/internal/middlebox"
	"perfsight/internal/stream"
)

// Fig3Point is one sweep point of the memory-vs-network contention curve.
type Fig3Point struct {
	MemDemandGBps   float64
	MemAchievedGBps float64
	NetGbps         float64
}

// Fig3Result reproduces Figure 3: 8 VMs on an 8-core, 10 GbE machine; some
// stream memory copies, the rest send traffic best-effort. Past a
// threshold, every extra GB/s of memory throughput costs the network
// ~439 Mbps in the paper.
type Fig3Result struct {
	Points []Fig3Point
	// SlopeMbpsPerGBps is the fitted network loss per extra GB/s of
	// memory throughput in the contended region (paper: −439).
	SlopeMbpsPerGBps float64
	// KneeGBps is the memory throughput where the network first leaves
	// saturation.
	KneeGBps float64
	// PeakNetGbps is the uncontended network throughput (paper: 10).
	PeakNetGbps float64
}

// Fig3Config tunes the sweep.
type Fig3Config struct {
	SenderVMs    int
	FlowsPerVM   int
	HogVMs       int
	MaxMemGBps   float64
	StepGBps     float64
	SettlePerPt  time.Duration
	MeasurePerPt time.Duration
	Tick         time.Duration
}

// DefaultFig3Config mirrors the paper's setup.
func DefaultFig3Config() Fig3Config {
	return Fig3Config{
		SenderVMs:    6,
		FlowsPerVM:   3,
		HogVMs:       2,
		MaxMemGBps:   12,
		StepGBps:     1,
		SettlePerPt:  2 * time.Second,
		MeasurePerPt: 2 * time.Second,
		Tick:         200 * time.Microsecond,
	}
}

// RunFig3 executes the sweep.
func RunFig3(cfg Fig3Config) (*Fig3Result, error) {
	if cfg.Tick <= 0 {
		cfg.Tick = 200 * time.Microsecond
	}
	if cfg.FlowsPerVM <= 0 {
		cfg.FlowsPerVM = 1
	}
	l := NewLab(cfg.Tick)
	defer l.Close()
	m := l.DefaultMachine("m0")
	l.C.AddHost("peer", 0)

	// Sender VMs push best-effort streams out to a remote host; several
	// flows per VM spread across the per-CPU backlog queues as real
	// multi-connection tenants do.
	for i := 0; i < cfg.SenderVMs; i++ {
		vm := core.VMID(fmt.Sprintf("vm-net%d", i))
		var apps []machine.App
		for j := 0; j < cfg.FlowsPerVM; j++ {
			conn := l.C.Connect(flowID(fmt.Sprintf("net-%d-%d", i, j)),
				cluster.VMEndpoint("m0", vm), cluster.HostEndpoint("peer"), stream.Config{})
			apps = append(apps, middlebox.NewConnSource(
				core.ElementID(fmt.Sprintf("m0/%s/app%d", vm, j)), 10e9, conn, 0))
		}
		l.C.PlaceVM("m0", vm, 1.0, 10e9, apps...)
	}

	// Hog VMs run the memory-copy workload; demand is swept.
	var hogs []*machine.Hog
	for i := 0; i < cfg.HogVMs; i++ {
		vm := core.VMID(fmt.Sprintf("vm-mem%d", i))
		l.C.PlaceVM("m0", vm, 1.0, 1e9)
		hogs = append(hogs, m.AddHog(&machine.Hog{
			Name:          fmt.Sprintf("memcpy-%d", i),
			Kind:          machine.HogMem,
			VM:            vm,
			CyclesPerByte: 0.33, // rep-movsb streaming copy
		}))
	}

	res := &Fig3Result{}
	pnic := m.Stack.PNic
	for demand := 0.0; demand <= cfg.MaxMemGBps+1e-9; demand += cfg.StepGBps {
		per := demand * 1e9 / float64(len(hogs))
		for _, h := range hogs {
			h.MemDemandBps = per
		}
		l.Run(cfg.SettlePerPt)

		txBefore := pnic.ES.Tx.Bytes.Load()
		memBefore := int64(0)
		for _, h := range hogs {
			memBefore += h.AchievedMemBytes()
		}
		l.Run(cfg.MeasurePerPt)
		sec := cfg.MeasurePerPt.Seconds()
		txAfter := pnic.ES.Tx.Bytes.Load()
		memAfter := int64(0)
		for _, h := range hogs {
			memAfter += h.AchievedMemBytes()
		}
		res.Points = append(res.Points, Fig3Point{
			MemDemandGBps:   demand,
			MemAchievedGBps: float64(memAfter-memBefore) / sec / 1e9,
			NetGbps:         float64(txAfter-txBefore) * 8 / sec / 1e9,
		})
	}
	res.analyze()
	return res, nil
}

// analyze fits the knee and slope.
func (r *Fig3Result) analyze() {
	if len(r.Points) == 0 {
		return
	}
	r.PeakNetGbps = r.Points[0].NetGbps
	for _, p := range r.Points {
		if p.NetGbps > r.PeakNetGbps {
			r.PeakNetGbps = p.NetGbps
		}
	}
	// Knee: first point where net drops below 95% of peak.
	kneeIdx := -1
	for i, p := range r.Points {
		if p.NetGbps < 0.95*r.PeakNetGbps {
			kneeIdx = i
			break
		}
	}
	if kneeIdx <= 0 {
		return
	}
	r.KneeGBps = r.Points[kneeIdx-1].MemAchievedGBps
	// Least-squares slope over the fully contended tail (skip the soft
	// knee where the NIC still partially binds).
	tail := kneeIdx + 2
	if tail > len(r.Points)-2 {
		tail = kneeIdx
	}
	var sx, sy, sxx, sxy float64
	n := 0.0
	for _, p := range r.Points[tail:] {
		x := p.MemAchievedGBps
		y := p.NetGbps * 1000 // Mbps
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
		n++
	}
	if n >= 2 && n*sxx-sx*sx != 0 {
		r.SlopeMbpsPerGBps = (n*sxy - sx*sy) / (n*sxx - sx*sx)
	}
}

// String renders the figure as a data table plus the fitted shape.
func (r *Fig3Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 3: memory-bandwidth contention vs network throughput\n")
	b.WriteString("mem demand (GB/s)  mem achieved (GB/s)  network (Gbps)\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%17.1f  %19.2f  %14.2f\n", p.MemDemandGBps, p.MemAchievedGBps, p.NetGbps)
	}
	fmt.Fprintf(&b, "peak network: %.2f Gbps (paper: 10)\n", r.PeakNetGbps)
	fmt.Fprintf(&b, "knee: %.1f GB/s of memory throughput\n", r.KneeGBps)
	fmt.Fprintf(&b, "slope beyond knee: %.0f Mbps per +1 GB/s (paper: -439)\n", r.SlopeMbpsPerGBps)
	return b.String()
}
