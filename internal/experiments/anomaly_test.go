package experiments

import (
	"testing"
	"time"

	"perfsight/internal/anomaly"
)

// TestAnomalyLabOneIncident is the anomaly-pipeline acceptance gate:
// twenty seconds of sustained memory-bus contention, dropping packets
// across several network VMs' TUNs, must produce exactly ONE incident
// with the correct root cause — not an event per sweep, not an incident
// per element — and the incident must resolve itself once the hog stops.
func TestAnomalyLabOneIncident(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated timeline; skip in -short")
	}
	r, err := RunAnomalyLab()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "anomaly", r)
	t.Logf("\n%s", r)

	if len(r.Incidents) != 1 {
		t.Fatalf("correlator opened %d incidents, want exactly 1: %+v", len(r.Incidents), r.Incidents)
	}
	in := r.Incidents[0]
	if in.RootCause != "resource:memory-bandwidth" {
		t.Errorf("root cause = %q, want resource:memory-bandwidth", in.RootCause)
	}
	if in.State != anomaly.StateResolved {
		t.Errorf("incident state = %q after the hog stopped, want resolved", in.State)
	}
	if in.EventCount < 2 {
		t.Errorf("incident folded %d events, want >= 2 (cooldown-spaced recurrences)", in.EventCount)
	}
	if r.Events != in.EventCount {
		t.Errorf("journal has %d events but the incident folded %d — some escaped correlation",
			r.Events, in.EventCount)
	}
	if len(in.Elements) < 2 {
		t.Errorf("incident names %d elements, want the contention's multiple TUNs", len(in.Elements))
	}
	if int64(in.FirstSeen) < int64(r.HogStart) {
		t.Errorf("incident FirstSeen %v precedes the hog at %v", in.FirstSeen, r.HogStart)
	}
	if in.ResolvedAt <= in.LastSeen {
		t.Errorf("ResolvedAt %v not after LastSeen %v", in.ResolvedAt, in.LastSeen)
	}

	// Detection latency is measured and sane: the hog lands mid-window,
	// the pipeline must notice within a few sweep cadences.
	if r.DetectionNS <= 0 || r.DetectionNS > int64(5*time.Second) {
		t.Errorf("detection latency %v, want (0, 5s]", time.Duration(r.DetectionNS))
	}
	if r.HogToFirstSeen <= 0 || r.HogToFirstSeen > 10*time.Second {
		t.Errorf("hog-to-first-seen %v, want (0, 10s]", r.HogToFirstSeen)
	}

	// The pipeline's sweep cost must stay within noise of monitor-only.
	// The triggered diagnoses bill to the sweeps that fire them, so allow
	// a generous multiple rather than a tight percentage.
	if r.SweepWallOn > 3*r.SweepWallOff {
		t.Errorf("sweep with pipeline %v vs without %v — evaluation is not cheap",
			r.SweepWallOn, r.SweepWallOff)
	}
}
