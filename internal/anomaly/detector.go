// Package anomaly is PerfSight's always-on detection pipeline: it
// consumes the flight recorder's sweep stream, maintains per-series
// baselines, gates triggers through per-tenant SLO thresholds, invokes
// Algorithms 1/2 from stored history the moment a series misbehaves, and
// correlates the resulting evidence-bearing events into incidents with a
// timeline. The monitor itself decides when something is anomalous —
// the operator reads one incident, not a stream of disconnected events
// (ROADMAP item 4; DRST's non-intrusive framing, Dapper's continuous
// data-plane diagnosis).
package anomaly

import "math"

// RateDetector turns a counter-semantics series into a rate signal:
// each evaluation differences the sample against the previous one over
// their timestamp gap. It is the generalization of the original
// drop-spike Watcher — registered first in every pipeline so the
// existing -event-* controller flags keep their meaning.
//
// The zero value is ready to use (cold: the first sample only seeds).
type RateDetector struct {
	prevTS int64
	prevV  float64
	seeded bool
}

// RateStatus says what one rate evaluation concluded.
type RateStatus uint8

const (
	// RateOK: the returned rate is judgeable.
	RateOK RateStatus = iota
	// RateCold: the seeding (first) sample; no previous point to
	// difference against.
	RateCold
	// RateStale: the timestamp did not advance (duplicate or
	// out-of-order sweep); the sample is ignored and state kept.
	RateStale
	// RateGap: the gap to the previous sample exceeded maxGapNS
	// (missed sweeps; a rate averaged over a blackout is not a spike).
	// The detector re-seeds.
	RateGap
	// RateReset: the counter moved backwards (the agent restarted, so
	// Sub-style differencing would go negative). The detector re-seeds.
	RateReset
)

// Eval feeds one sample and returns the rate per second since the
// previous sample. Any status other than RateOK means the detector
// could not judge; RateGap and RateReset re-seed so the next sample
// evaluates normally.
func (d *RateDetector) Eval(ts int64, v float64, maxGapNS int64) (rate float64, st RateStatus) {
	prevTS, prevV, seeded := d.prevTS, d.prevV, d.seeded
	if ts <= prevTS && seeded {
		return 0, RateStale // keep state
	}
	d.prevTS, d.prevV, d.seeded = ts, v, true
	if !seeded {
		return 0, RateCold
	}
	gap := ts - prevTS
	if maxGapNS > 0 && gap > maxGapNS {
		return 0, RateGap // reseeded above
	}
	if v < prevV {
		return 0, RateReset // reseeded above
	}
	return (v - prevV) / (float64(gap) / 1e9), RateOK
}

// LastTS returns the timestamp of the last accepted sample.
func (d *RateDetector) LastTS() int64 { return d.prevTS }

// EWMAConfig shapes one baseline detector.
type EWMAConfig struct {
	// Alpha is the EWMA smoothing factor for the mean and the mean
	// absolute deviation (0 < Alpha <= 1).
	Alpha float64
	// MinSamples is the cold-start length: no judgement until this many
	// samples have folded into the baseline.
	MinSamples int
	// Bands is the deviation multiplier: a sample is out of band when
	// |x − mean| > Bands · max(dev, RelFloor·|mean|, AbsFloor).
	Bands float64
	// RelFloor and AbsFloor keep a flat series (dev ≈ 0) from flagging
	// harmless jitter: the effective deviation never falls below
	// RelFloor·|mean| or AbsFloor.
	RelFloor float64
	AbsFloor float64
	// Persistence is how many consecutive out-of-band samples it takes
	// to trigger (a single blip is suppressed).
	Persistence int
}

// EWMAVerdict is one baseline evaluation.
type EWMAVerdict struct {
	// Out reports the sample landed outside the deviation bands.
	Out bool
	// Trigger reports the out-of-band streak reached Persistence.
	Trigger bool
	// Baseline and Band are the mean and the band half-width the sample
	// was judged against (evidence for the journal).
	Baseline float64
	Band     float64
	// Deviation is |x − mean| in band units (>1 means out).
	Deviation float64
}

// EWMADetector maintains an exponentially weighted baseline (mean and
// mean absolute deviation) for one series and judges each sample
// against deviation bands. The zero value is cold; the first sample
// seeds the mean.
type EWMADetector struct {
	mean   float64
	dev    float64
	warm   int
	streak int
}

// Eval folds one sample into the baseline and judges it. Out-of-band
// samples fold in at Alpha/8 so the baseline does not chase the anomaly
// it is reporting; the streak resets as soon as a sample lands back
// inside the bands — which is also how incidents detect recovery.
func (d *EWMADetector) Eval(x float64, cfg EWMAConfig) EWMAVerdict {
	if d.warm == 0 {
		d.mean, d.dev, d.warm = x, 0, 1
		return EWMAVerdict{Baseline: x}
	}
	v := EWMAVerdict{Baseline: d.mean}
	effDev := d.dev
	if f := cfg.RelFloor * math.Abs(d.mean); f > effDev {
		effDev = f
	}
	if cfg.AbsFloor > effDev {
		effDev = cfg.AbsFloor
	}
	v.Band = cfg.Bands * effDev
	diff := math.Abs(x - d.mean)
	if v.Band > 0 {
		v.Deviation = diff / v.Band
	}
	judging := d.warm >= cfg.MinSamples
	if judging && diff > v.Band {
		v.Out = true
		d.streak++
		if d.streak >= cfg.Persistence {
			v.Trigger = true
		}
		// Fold the outlier in slowly: the baseline must survive the
		// anomaly to notice the series coming back.
		a := cfg.Alpha / 8
		d.mean += a * (x - d.mean)
		d.dev += a * (diff - d.dev)
		return v
	}
	d.streak = 0
	d.mean += cfg.Alpha * (x - d.mean)
	d.dev += cfg.Alpha * (diff - d.dev)
	if d.warm < cfg.MinSamples {
		d.warm++
	}
	return v
}

// Reset returns the detector to cold start (used across series gaps).
func (d *EWMADetector) Reset() { *d = EWMADetector{} }

// Warm reports how many in-band samples have folded into the baseline
// (capped at the MinSamples it was evaluated with).
func (d *EWMADetector) Warm() int { return d.warm }

// Streak reports the current consecutive out-of-band count.
func (d *EWMADetector) Streak() int { return d.streak }

// Baseline returns the current mean.
func (d *EWMADetector) Baseline() float64 { return d.mean }
