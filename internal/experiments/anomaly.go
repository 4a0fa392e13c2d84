package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"perfsight/internal/anomaly"
	"perfsight/internal/machine"
)

// AnomalyLabResult is the anomaly-pipeline acceptance experiment: replay
// the Figure 11 memory-bandwidth scenario under the always-on pipeline
// and check that twenty seconds of sustained contention — dropping
// packets at every network VM's TUN — pages the operator exactly once:
// one incident, rooted at memory bandwidth, holding every triggered
// event, resolving itself once the hog stops. A twin run with the
// pipeline detached measures what evaluation adds to a Monitor sweep.
type AnomalyLabResult struct {
	// HogStart/HogStop bound the injected contention (virtual time).
	HogStart, HogStop time.Duration
	// Events is how many diagnosis events the pipeline journaled.
	Events int
	// Incidents is every incident the correlator ever opened (the
	// experiment demands exactly one).
	Incidents []anomaly.Incident
	// HogToFirstSeen is injection-to-detection in virtual time: the hog
	// starts mid-window, the next sweeps must cross the SLO and trigger.
	HogToFirstSeen time.Duration
	// DetectionNS is the incident's own latency evidence: record-clock
	// time from the last known-good sample to the opening trigger.
	DetectionNS int64
	// SweepWallOn/SweepWallOff are mean wall-clock costs of one Monitor
	// sweep with the pipeline attached vs detached (overhead must stay
	// within noise).
	SweepWallOn, SweepWallOff time.Duration
	Sweeps                    int
}

// incident returns the single incident (zero value when none).
func (r *AnomalyLabResult) incident() anomaly.Incident {
	if len(r.Incidents) == 0 {
		return anomaly.Incident{}
	}
	return r.Incidents[0]
}

// Correct reports whether the pipeline met the acceptance criteria.
func (r *AnomalyLabResult) Correct() bool {
	if len(r.Incidents) != 1 {
		return false
	}
	in := r.incident()
	return in.RootCause == "resource:memory-bandwidth" &&
		in.State == anomaly.StateResolved &&
		in.EventCount >= 2 &&
		len(in.Elements) >= 2 && // contention hits several TUNs, not one
		r.DetectionNS > 0 &&
		r.HogToFirstSeen > 0
}

// String renders the report.
func (r *AnomalyLabResult) String() string {
	var b strings.Builder
	b.WriteString("Anomaly pipeline: one incident from sustained memory-bus contention\n")
	fmt.Fprintf(&b, "contention injected t=%v..%v; %d diagnosis events journaled\n",
		r.HogStart, r.HogStop, r.Events)
	fmt.Fprintf(&b, "incidents opened: %d\n", len(r.Incidents))
	for _, in := range r.Incidents {
		fmt.Fprintf(&b, "  #%d [%s] root cause %s: %d events, %d elements, t=%vs..%vs",
			in.ID, in.State, in.RootCause, in.EventCount, len(in.Elements),
			in.FirstSeen/1e9, in.LastSeen/1e9)
		if in.ResolvedAt > 0 {
			fmt.Fprintf(&b, " (resolved t=%vs)", in.ResolvedAt/1e9)
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "detection: hog-to-first-seen %v virtual; last-good-to-trigger %v record clock\n",
		r.HogToFirstSeen, time.Duration(r.DetectionNS))
	fmt.Fprintf(&b, "sweep wall cost over %d sweeps: pipeline on %v, off %v\n",
		r.Sweeps, r.SweepWallOn.Round(time.Microsecond), r.SweepWallOff.Round(time.Microsecond))
	if r.Correct() {
		b.WriteString("exactly one incident, correct root cause, self-resolved\n")
	} else {
		b.WriteString("ACCEPTANCE CRITERIA NOT MET\n")
	}
	return b.String()
}

// anomalyScenario builds the Fig 11 oversubscription lab: four
// network-intensive VMs behind one pNIC, offered ~3.4 Gbps aggregate.
func anomalyScenario() (*SinkFleet, error) {
	return NewSinkFleet("t-anom", 4, 2e9, 3.4e9/4)
}

// anomalySLO is the experiment's tenant SLO: a 100 pps drop threshold
// with a short cooldown so sustained contention produces several events
// for the correlator to fold.
func anomalySLO() anomaly.Config {
	return anomaly.Config{
		SLO: anomaly.SLOConfig{Default: anomaly.SLO{
			DropRatePPS: 100,
			Bands:       8, // recovery swings (~2x rate jump) must stay in band
			Persistence: 4,
			Window:      anomaly.Duration(3 * time.Second),
			Cooldown:    anomaly.Duration(5 * time.Second),
		}},
		Correlator: anomaly.CorrelatorConfig{
			Window:       30 * time.Second,
			ResolveAfter: 8 * time.Second,
		},
	}
}

// RunAnomalyLab executes the acceptance experiment.
func RunAnomalyLab() (*AnomalyLabResult, error) {
	res := &AnomalyLabResult{}

	// Twin run, pipeline detached: the sweep-cost baseline.
	{
		l, err := anomalyScenario()
		if err != nil {
			return nil, err
		}
		defer l.Close()
		rl := newRecorderLab(l.Lab, anomalySLO())
		rl.Mon.AfterSweep = nil // monitor-only
		res.SweepWallOff = runAnomalyTimeline(rl, l.M, nil)
	}

	// The real run: pipeline attached, incident expected.
	l, err := anomalyScenario()
	if err != nil {
		return nil, err
	}
	defer l.Close()
	rl := newRecorderLab(l.Lab, anomalySLO())
	res.SweepWallOn = runAnomalyTimeline(rl, l.M, res)

	res.Events = len(rl.Journal.Since(0, 0))
	res.Incidents = rl.Pipe.Incidents.List("", 0)
	if in := res.incident(); in.FirstSeen > 0 {
		res.DetectionNS = in.DetectionNS
		res.HogToFirstSeen = time.Duration(in.FirstSeen) - res.HogStart
	}
	return res, nil
}

// runAnomalyTimeline drives the shared timeline — 8 s healthy, 20 s of
// memory-bus contention, 12 s recovery — sweeping once per virtual
// second, and returns the mean wall cost of one sweep. When res is
// non-nil the hog bounds are recorded into it.
func runAnomalyTimeline(rl *recorderLab, m *machine.Machine, res *AnomalyLabResult) time.Duration {
	sweeps := 0
	var wall time.Duration
	phase := func(seconds int) {
		for i := 0; i < seconds; i++ {
			rl.C.Run(time.Second)
			start := time.Now()
			rl.Mon.Sweep(context.Background())
			wall += time.Since(start)
			sweeps++
		}
	}
	phase(8)
	hog := m.AddHog(MemHog("memvms", 23e9))
	if res != nil {
		res.HogStart = rl.C.Now()
	}
	phase(20)
	m.RemoveHog(hog)
	if res != nil {
		res.HogStop = rl.C.Now()
		res.Sweeps = sweeps + 12
	}
	phase(12)
	return wall / time.Duration(sweeps)
}
