package experiments

import (
	"fmt"
	"strings"
	"time"

	"perfsight/internal/core"
	"perfsight/internal/diagnosis"
	"perfsight/internal/machine"
)

// Fig11Sample is one timeline point of the memory-bandwidth experiment.
type Fig11Sample struct {
	T       float64
	NetGbps float64
}

// Fig11Result reproduces Figure 11: network-intensive VMs run at about
// 3.25 Gbps aggregate; at t=20 s memory-intensive VMs start and the
// aggregate falls to about 1.7 Gbps, with the vast majority of drops (92%
// in the paper) at the network VMs' TUNs.
type Fig11Result struct {
	Samples []Fig11Sample
	// BeforeGbps/AfterGbps are the aggregate throughputs of the two
	// regimes.
	BeforeGbps, AfterGbps float64
	// TUNShare is the fraction of stack drops at TUNs during contention.
	TUNShare float64
	// Report is the diagnosis during contention.
	Report *diagnosis.ContentionReport
}

// Correct reports whether the diagnosis matched the paper's.
func (r *Fig11Result) Correct() bool {
	return r.Report != nil &&
		r.Report.TopLocation == diagnosis.LocTUNAggregated &&
		r.Report.Inferred == diagnosis.ResourceMemoryBandwidth &&
		r.TUNShare > 0.8
}

// String renders the figure.
func (r *Fig11Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 11: memory-bandwidth contention\n")
	b.WriteString("t(s)  network (Gbps)\n")
	for _, s := range r.Samples {
		fmt.Fprintf(&b, "%4.0f  %14.2f\n", s.T, s.NetGbps)
	}
	fmt.Fprintf(&b, "aggregate before: %.2f Gbps (paper: 3.25); during contention: %.2f Gbps (paper: 1.7)\n",
		r.BeforeGbps, r.AfterGbps)
	fmt.Fprintf(&b, "share of drops at TUNs: %.0f%% (paper: 92%%)\n", r.TUNShare*100)
	if r.Report != nil {
		fmt.Fprintf(&b, "diagnosis: %s\n", r.Report)
	}
	return b.String()
}

// RunFig11 executes the oversubscription scenario.
func RunFig11() (*Fig11Result, error) {
	const tid = core.TenantID("t-net")
	l, err := NewSinkFleet(tid, 4, 2e9, 3.4e9/4) // ~3.4 Gbps offered aggregate
	if err != nil {
		return nil, err
	}
	defer l.Close()

	res := &Fig11Result{}
	pnic := l.M.Stack.PNic
	var prevRx uint64
	sample := func() {
		l.Run(time.Second)
		rx := pnic.ES.Rx.Bytes.Load()
		res.Samples = append(res.Samples, Fig11Sample{
			T:       l.C.Now().Seconds(),
			NetGbps: float64(rx-prevRx) * 8 / 1e9,
		})
		prevRx = rx
	}

	for i := 0; i < 20; i++ {
		sample()
	}
	// Memory-intensive VMs start: their streaming copies get bus priority.
	l.M.AddHog(MemHog("memvms", 23e9))

	dropsBefore := stackDropSnapshot(l.M)
	for i := 0; i < 4; i++ {
		sample()
	}
	rep, err := diagnosis.FindContentionAndBottleneck(l.Ctl, tid, 3*time.Second)
	if err != nil {
		return nil, err
	}
	res.Report = rep
	prevRx = pnic.ES.Rx.Bytes.Load() // resync past the diagnosis window
	for i := 0; i < 13; i++ {
		sample()
	}
	dropsAfter := stackDropSnapshot(l.M)

	total := float64(dropsAfter.total - dropsBefore.total)
	if total > 0 {
		res.TUNShare = float64(dropsAfter.tun-dropsBefore.tun) / total
	}

	nb, na := 0, 0
	for _, s := range res.Samples {
		if s.T <= 20 && s.T > 5 {
			res.BeforeGbps += s.NetGbps
			nb++
		} else if s.T > 22 {
			res.AfterGbps += s.NetGbps
			na++
		}
	}
	if nb > 0 {
		res.BeforeGbps /= float64(nb)
	}
	if na > 0 {
		res.AfterGbps /= float64(na)
	}
	return res, nil
}

// dropCounts aggregates stack drop counters by location.
type dropCounts struct {
	total, tun uint64
}

func stackDropSnapshot(m *machine.Machine) dropCounts {
	var d dropCounts
	d.total += m.Stack.PNic.ES.Drop.Packets.Load()
	d.total += m.Stack.Backlogs.TotalDrops()
	d.total += m.Stack.Driver.ES.Drop.Packets.Load()
	for _, id := range m.VMs() {
		vm := m.VM(id)
		if vm == nil {
			continue
		}
		t := vm.Stack.Tun.ES.Drop.Packets.Load()
		d.total += t
		d.tun += t
	}
	return d
}
