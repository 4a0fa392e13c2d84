package experiments

import (
	"fmt"
	"io"
	"net"
	"strings"
	"time"

	"perfsight/internal/controller"
	"perfsight/internal/core"
	"perfsight/internal/middlebox"
)

// FanoutResult measures the resilience corollary of Fig 9/16: the paper's
// scalability argument prices one statistics sweep at one agent round
// trip, which only holds if a slow or dead agent cannot serialize the
// fleet. Three sweeps over real TCP agents check that: all healthy, one
// agent stalled (bounded by the sweep deadline, partial results intact),
// and the follow-up sweep where the stalled agent's breaker is open and
// costs nothing.
type FanoutResult struct {
	Agents   int           // fleet size, including the stalled machine
	Deadline time.Duration // configured sweep deadline
	Healthy  time.Duration // sweep latency with every agent answering
	Stalled  time.Duration // sweep latency with one agent never answering
	Skipped  time.Duration // next sweep: breaker open, no deadline paid
	// PartialRecords counts elements still collected during the stalled
	// sweep; SkipErr reports whether that follow-up sweep surfaced the
	// breaker-skip error for the dead machine.
	PartialRecords int
	SkipErr        bool
}

// ShapeCorrect checks the claim: a stalled agent costs ~one deadline once
// (not fleet × timeout), the rest of the fleet still answers, and the
// breaker makes the next sweep cheap again. Bounds are generous for
// loaded CI machines; the ordering is the claim.
func (r *FanoutResult) ShapeCorrect() bool {
	return r.Healthy < r.Deadline &&
		r.Stalled >= r.Deadline/2 &&
		r.Stalled < 4*r.Deadline &&
		r.Skipped < r.Deadline/2 &&
		r.PartialRecords > 0 &&
		r.SkipErr
}

// String renders the three sweeps.
func (r *FanoutResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fan-out resilience: %d agents over TCP, sweep deadline %v\n", r.Agents, r.Deadline)
	fmt.Fprintf(&b, "all healthy        %10.1f ms\n", float64(r.Healthy)/1e6)
	fmt.Fprintf(&b, "one agent stalled  %10.1f ms  (%d elements still collected)\n",
		float64(r.Stalled)/1e6, r.PartialRecords)
	fmt.Fprintf(&b, "breaker open       %10.1f ms  (stalled agent skipped: %v)\n",
		float64(r.Skipped)/1e6, r.SkipErr)
	return b.String()
}

// RunFanout builds n machines served by real TCP agents plus one machine
// whose "agent" accepts connections but never answers, then times the
// three sweeps. deadline bounds each sweep; <=0 uses 300ms.
func RunFanout(n int, deadline time.Duration) (*FanoutResult, error) {
	if n < 2 {
		n = 4
	}
	if deadline <= 0 {
		deadline = 300 * time.Millisecond
	}

	l := NewLab(time.Millisecond)
	const tid = core.TenantID("t1")
	const stallMachine = core.MachineID("stall")
	machines := make([]core.MachineID, 0, n)
	for i := 0; i < n-1; i++ {
		machines = append(machines, core.MachineID(fmt.Sprintf("m%d", i)))
	}
	machines = append(machines, stallMachine)
	for _, mid := range machines {
		l.DefaultMachine(mid)
		app := core.ElementID(string(mid) + "/vm0/app")
		l.C.PlaceVM(mid, "vm0", 1.0, 1e9, middlebox.NewSink(app, 1e9))
	}
	if err := l.BuildAgents(); err != nil {
		return nil, err
	}
	defer l.Close()
	for _, mid := range machines {
		l.C.AssignStack(tid, mid)
		l.C.AssignVM(tid, mid, "vm0")
	}
	l.Run(100 * time.Millisecond)

	// Serve every healthy agent over real TCP; the client timeout exceeds
	// the sweep deadline so the sweep context is what bounds a stall.
	for _, mid := range machines {
		if mid == stallMachine {
			continue
		}
		client, err := l.ServeTCP(mid)
		if err != nil {
			return nil, err
		}
		client.Timeout = 4 * deadline
		l.Ctl.RegisterAgent(mid, client)
	}

	// The stalled machine: a black hole that accepts and reads requests
	// but never replies — the half-open-agent failure mode that used to
	// park a sweep for the full client timeout.
	sl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	defer sl.Close()
	go func() {
		for {
			conn, err := sl.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) { io.Copy(io.Discard, c) }(conn)
		}
	}()
	stallClient := controller.NewTCPClient(sl.Addr().String())
	stallClient.Timeout = 4 * deadline
	l.Ctl.RegisterAgent(stallMachine, stallClient)
	defer stallClient.Close()

	l.Ctl.Sweep = controller.SweepConfig{
		Deadline:         deadline,
		Retries:          0,
		BreakerThreshold: 1,
		BreakerCooldown:  time.Hour,
	}

	res := &FanoutResult{Agents: n, Deadline: deadline}
	allIDs := l.Ctl.TenantElements(tid, nil)
	healthyIDs := l.Ctl.TenantElements(tid, func(_ core.ElementID, info core.ElementInfo) bool {
		return info.Machine != stallMachine
	})

	start := time.Now()
	if _, err := l.Ctl.Sample(tid, healthyIDs); err != nil {
		return nil, fmt.Errorf("fanout healthy sweep: %w", err)
	}
	res.Healthy = time.Since(start)

	start = time.Now()
	recs, err := l.Ctl.Sample(tid, allIDs)
	res.Stalled = time.Since(start)
	res.PartialRecords = len(recs)
	if err == nil {
		return nil, fmt.Errorf("fanout: stalled sweep reported no error")
	}

	start = time.Now()
	recs, err = l.Ctl.Sample(tid, allIDs)
	res.Skipped = time.Since(start)
	if len(recs) > res.PartialRecords {
		res.PartialRecords = len(recs)
	}
	res.SkipErr = err != nil && strings.Contains(err.Error(), controller.ErrAgentSkipped.Error())
	return res, nil
}
