package telemetry

import "sync"

// skewAlpha is the EWMA weight of a fresh offset sample. Small enough
// to ride out transport-jitter noise, large enough that a step change
// (VM migration, NTP slew on the agent) converges within ~10 round
// trips.
const skewAlpha = 0.25

// SkewEstimator estimates one remote peer's clock offset from
// request/response timestamp pairs, NTP midpoint style. The controller
// records t1 (frame sent) and t4 (response received) on its own clock;
// the agent reports agent_ts (its clock when it finished handling, t3)
// and agent_ns (its handling time, t3−t2). Assuming symmetric transport,
//
//	offset = t3 − (t1+t4)/2 − handling/2
//
// is the agent-minus-controller clock difference. Samples are
// EWMA-smoothed; the estimator is connection-scoped (it lives inside the
// connection's session.Session), so a redial naturally
// starts a fresh estimate — exactly right, since a reconnect may reach a
// different process with a different clock.
type SkewEstimator struct {
	mu       sync.Mutex
	offsetNS float64
	samples  uint64
}

// Observe folds in one request/response pair. sendNS/recvNS are the
// controller-clock unix-ns timestamps around the round trip; agentTS is
// the peer's agent_ts and agentNS its reported handling time. Pairs that
// cannot be sane (reversed round trip, missing agent_ts) are ignored;
// a handling time exceeding the round trip is clamped to it.
func (e *SkewEstimator) Observe(sendNS, recvNS, agentTS, agentNS int64) {
	if e == nil || agentTS <= 0 || recvNS < sendNS {
		return
	}
	if agentNS < 0 {
		agentNS = 0
	}
	if rtt := recvNS - sendNS; agentNS > rtt {
		agentNS = rtt
	}
	mid := sendNS + (recvNS-sendNS)/2
	sample := float64(agentTS - mid - agentNS/2)
	e.mu.Lock()
	if e.samples == 0 {
		e.offsetNS = sample
	} else {
		e.offsetNS += skewAlpha * (sample - e.offsetNS)
	}
	e.samples++
	e.mu.Unlock()
}

// Offset returns the smoothed agent-minus-controller offset in
// nanoseconds and whether any sample has been observed. Subtract it
// from a remote timestamp to land on the controller's timeline.
func (e *SkewEstimator) Offset() (int64, bool) {
	if e == nil {
		return 0, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return int64(e.offsetNS), e.samples > 0
}

// Samples returns how many pairs have been folded in.
func (e *SkewEstimator) Samples() uint64 {
	if e == nil {
		return 0
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.samples
}

// Reset discards the estimate (counter-reset / explicit redial path;
// a structurally fresh estimator per connection achieves the same).
func (e *SkewEstimator) Reset() {
	if e == nil {
		return
	}
	e.mu.Lock()
	e.offsetNS, e.samples = 0, 0
	e.mu.Unlock()
}
