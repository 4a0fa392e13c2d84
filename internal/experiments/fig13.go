package experiments

import (
	"fmt"
	"strings"
	"time"

	"perfsight/internal/diagnosis"
)

// Fig13Sample is one per-second point of the multi-tenant timeline.
type Fig13Sample struct {
	T           float64
	Tenant1Mbps float64
	Tenant2Mbps float64
}

// Fig13Phase records the operator's diagnosis at each stage.
type Fig13Phase struct {
	Name     string
	Location diagnosis.DropLocation
	Inferred diagnosis.Resource
	Scope    diagnosis.Scope
	Note     string
}

// Fig13Result reproduces the §7.3 operator workflow (Figures 13/14): two
// tenants' proxies share a machine; tenant 2 is bottlenecked by its own
// proxy (~200 Mbps); a memory-intensive management task then hits both;
// the operator migrates it away; finally tenant 2's proxy is scaled out
// and its throughput reaches the offered 360 Mbps.
type Fig13Result struct {
	Samples []Fig13Sample
	Phases  []Fig13Phase
	// Phase averages for tenant 2 (the paper's headline numbers).
	T2Bottleneck, T2MemPhase, T2Recovered, T2ScaledOut float64
	T1Baseline                                         float64
}

// Correct checks the headline shape: bottleneck ~200, dip, recovery, then
// ~360 after scale-out.
func (r *Fig13Result) Correct() bool {
	return r.T2Bottleneck > 150e6 && r.T2Bottleneck < 260e6 &&
		r.T2MemPhase < 0.7*r.T2Bottleneck &&
		r.T2Recovered > 0.85*r.T2Bottleneck &&
		r.T2ScaledOut > 300e6
}

// String renders the timeline and phase diagnoses.
func (r *Fig13Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 13: multi-tenant throughput under operator actions\n")
	b.WriteString("t(s)  tenant1(Mbps)  tenant2(Mbps)\n")
	for _, s := range r.Samples {
		fmt.Fprintf(&b, "%4.0f  %13.0f  %13.0f\n", s.T, s.Tenant1Mbps, s.Tenant2Mbps)
	}
	b.WriteString("\noperator diagnoses:\n")
	for _, p := range r.Phases {
		fmt.Fprintf(&b, "  %-14s %s / %s (%s) — %s\n", p.Name+":", p.Location, p.Inferred, p.Scope, p.Note)
	}
	fmt.Fprintf(&b, "\ntenant2: bottleneck %.0f Mbps (paper ~200), mem-contention %.0f, recovered %.0f, scaled out %.0f (paper 360)\n",
		r.T2Bottleneck/1e6, r.T2MemPhase/1e6, r.T2Recovered/1e6, r.T2ScaledOut/1e6)
	fmt.Fprintf(&b, "tenant1 baseline %.0f Mbps (paper 180)\n", r.T1Baseline/1e6)
	return b.String()
}

// RunFig13 executes the operator scenario.
func RunFig13() (*Fig13Result, error) {
	l, err := NewFig13()
	if err != nil {
		return nil, err
	}
	defer l.Close()

	res := &Fig13Result{}
	var prev1, prev2 int64
	sample := func() {
		l.Run(time.Second)
		d1, d2 := l.Delivered()
		res.Samples = append(res.Samples, Fig13Sample{
			T:           l.C.Now().Seconds(),
			Tenant1Mbps: float64(d1-prev1) * 8 / 1e6,
			Tenant2Mbps: float64(d2-prev2) * 8 / 1e6,
		})
		prev1, prev2 = d1, d2
	}
	// resync skips the bytes delivered during a diagnosis window (which
	// advances virtual time) so the next sample stays a 1-second delta.
	resync := func() { prev1, prev2 = l.Delivered() }
	avg2 := func(from, to float64) float64 {
		var s float64
		n := 0
		for _, x := range res.Samples {
			if x.T > from && x.T <= to {
				s += x.Tenant2Mbps
				n++
			}
		}
		if n == 0 {
			return 0
		}
		return s / float64(n) * 1e6
	}

	// Phase 1 (0-10 s): tenant 2 bottlenecked at its proxy. TCP flow
	// control keeps the stack loss-free, so the operator turns to the
	// middlebox-state application (§5.1 bottleneck detection): a middlebox
	// that is neither Read- nor WriteBlocked while its tenant underperforms
	// is the bottleneck.
	for i := 0; i < 3; i++ {
		sample()
	}
	rc, err := diagnosis.LocateRootCause(l.Ctl, Fig13Tenant2, 3*time.Second)
	if err != nil {
		return nil, err
	}
	resync()
	for i := 0; i < 4; i++ {
		sample()
	}
	note := "no middlebox isolated"
	if len(rc.RootCauses) > 0 {
		note = fmt.Sprintf("tenant 2 bottlenecked at %s (state %s)",
			rc.RootCauses[0], rc.Metrics[rc.RootCauses[0]].State)
	}
	res.Phases = append(res.Phases, Fig13Phase{Name: "bottleneck", Note: note})

	// Phase 2 (10-20 s): memory-intensive management task on the host.
	hog := l.M.AddHog(MemHog("mgmt", 26e9))
	for i := 0; i < 3; i++ {
		sample()
	}
	rep, err := diagnosis.FindContentionAndBottleneck(l.Ctl, Fig13Operator, 3*time.Second)
	if err != nil {
		return nil, err
	}
	resync()
	for i := 0; i < 4; i++ {
		sample()
	}
	res.Phases = append(res.Phases, Fig13Phase{
		Name: "mem-task", Location: rep.TopLocation, Inferred: rep.Inferred, Scope: rep.Scope,
		Note: "both tenants' proxies dropping at their TUNs",
	})

	// Phase 3 (20-30 s): the operator migrates the management task away.
	l.M.RemoveHog(hog)
	for i := 0; i < 10; i++ {
		sample()
	}

	// Phase 4 (30-40 s): scale out tenant 2's proxy and reroute half of
	// its flows to the new instance on the spare machine.
	if err := l.ScaleOut(); err != nil {
		return nil, err
	}
	for i := 0; i < 10; i++ {
		sample()
	}
	res.Phases = append(res.Phases, Fig13Phase{
		Name: "scale-out", Location: diagnosis.LocNone, Inferred: diagnosis.ResourceUnknown,
		Note: "half of tenant 2's flows rerouted to vm-p2b on m-spare",
	})

	res.T1Baseline = 0
	var n1 float64
	for _, s := range res.Samples {
		if s.T <= 10 {
			res.T1Baseline += s.Tenant1Mbps * 1e6
			n1++
		}
	}
	if n1 > 0 {
		res.T1Baseline /= n1
	}
	res.T2Bottleneck = avg2(3, 10)
	res.T2MemPhase = avg2(12, 20)
	res.T2Recovered = avg2(23, 30)
	res.T2ScaledOut = avg2(34, 40)
	return res, nil
}
