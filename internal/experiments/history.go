package experiments

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"perfsight/internal/anomaly"
	"perfsight/internal/controller"
	"perfsight/internal/core"
	"perfsight/internal/diagnosis"
	"perfsight/internal/history"
	"perfsight/internal/wire"
)

// HistoryReplayResult is the flight-recorder acceptance experiment: run
// the Algorithm 1 and Algorithm 2 scenarios with a background Monitor
// recording every sweep, then diagnose the SAME window twice — live
// (sampling agents and blocking the measurement window) and from the
// history store — and compare verdicts and cost.
type HistoryReplayResult struct {
	// Algorithm 1 (memory-bandwidth contention) verdicts.
	StackLive, StackHistory *diagnosis.ContentionReport
	// Algorithm 2 (chain root cause) verdicts.
	ChainLive, ChainHistory *diagnosis.RootCauseReport

	// Agent queries issued by each diagnosis path. The history path's
	// whole point is that this is zero.
	StackQueriesLive, StackQueriesHistory int64
	ChainQueriesLive, ChainQueriesHistory int64

	// LiveBlocked is the virtual time the live paths spent inside their
	// measurement windows; HistoryWall the wall-clock cost of the
	// history-backed diagnoses over the same windows.
	LiveBlocked time.Duration
	HistoryWall time.Duration

	// StoreStats and Events summarize what the recorder captured.
	StoreStats history.Stats
	Events     []history.Event
}

// Match reports whether both history verdicts equal their live twins and
// the history paths issued zero agent queries.
func (r *HistoryReplayResult) Match() bool {
	if r.StackLive == nil || r.StackHistory == nil || r.ChainLive == nil || r.ChainHistory == nil {
		return false
	}
	if r.StackQueriesHistory != 0 || r.ChainQueriesHistory != 0 {
		return false
	}
	if r.StackLive.Scope != r.StackHistory.Scope ||
		r.StackLive.TopLocation != r.StackHistory.TopLocation ||
		r.StackLive.Inferred != r.StackHistory.Inferred ||
		r.StackLive.TotalLoss != r.StackHistory.TotalLoss {
		return false
	}
	if len(r.StackLive.Ranked) != len(r.StackHistory.Ranked) {
		return false
	}
	for i := range r.StackLive.Ranked {
		if r.StackLive.Ranked[i] != r.StackHistory.Ranked[i] {
			return false
		}
	}
	if fmt.Sprint(r.ChainLive.RootCauses) != fmt.Sprint(r.ChainHistory.RootCauses) ||
		r.ChainLive.SourceUnderloaded != r.ChainHistory.SourceUnderloaded {
		return false
	}
	for id, m := range r.ChainLive.Metrics {
		if hm, ok := r.ChainHistory.Metrics[id]; !ok || hm.State != m.State {
			return false
		}
	}
	return true
}

// String renders the comparison.
func (r *HistoryReplayResult) String() string {
	var b strings.Builder
	b.WriteString("Flight recorder replay: live vs history diagnosis over the same window\n")
	fmt.Fprintf(&b, "Algorithm 1  live:    %s  (%d agent queries)\n", r.StackLive, r.StackQueriesLive)
	fmt.Fprintf(&b, "Algorithm 1  history: %s  (%d agent queries)\n", r.StackHistory, r.StackQueriesHistory)
	fmt.Fprintf(&b, "Algorithm 2  live:    %s  (%d agent queries)\n", r.ChainLive, r.ChainQueriesLive)
	fmt.Fprintf(&b, "Algorithm 2  history: %s  (%d agent queries)\n", r.ChainHistory, r.ChainQueriesHistory)
	fmt.Fprintf(&b, "live paths blocked %v of measurement window; history answered in %v wall\n",
		r.LiveBlocked, r.HistoryWall.Round(time.Microsecond))
	fmt.Fprintf(&b, "recorder: %d series, %d resident points (%d appended, %d evicted), %d events\n",
		r.StoreStats.Series, r.StoreStats.Resident, r.StoreStats.Appends, r.StoreStats.Evicted, len(r.Events))
	for _, ev := range r.Events {
		fmt.Fprintf(&b, "  event #%d t=%vs %s: %s\n", ev.Seq, ev.TS/1e9, ev.Element, ev.Summary)
	}
	if r.Match() {
		b.WriteString("verdicts identical; history path issued zero agent queries\n")
	} else {
		b.WriteString("VERDICTS DIVERGED\n")
	}
	return b.String()
}

// countingClient wraps an AgentClient and counts queries, so the
// experiment can prove the history path never touches an agent.
type countingClient struct {
	inner   controller.AgentClient
	queries *atomic.Int64
}

func (c *countingClient) Query(q wire.Query) ([]core.Record, error) {
	c.queries.Add(1)
	return c.inner.Query(q)
}
func (c *countingClient) ListElements() ([]wire.ElementMeta, error) { return c.inner.ListElements() }
func (c *countingClient) Ping() (time.Duration, error)              { return c.inner.Ping() }
func (c *countingClient) Close() error                              { return c.inner.Close() }

// recorderLab wires a lab's controller to a Monitor whose sweeps fire at
// every virtual second and inside every measurement wait, so the store
// holds samples at the exact instants live diagnosis snapshots.
type recorderLab struct {
	*Lab
	Store   *history.Store
	Mon     *history.Monitor
	Journal *history.Journal
	Pipe    *anomaly.Pipeline
	Queries atomic.Int64
}

func newRecorderLab(l *Lab, cfg anomaly.Config) *recorderLab {
	rl := &recorderLab{Lab: l}
	for mid, a := range l.Agents {
		l.Ctl.RegisterAgent(mid, &countingClient{
			inner:   &controller.LocalClient{A: a},
			queries: &rl.Queries,
		})
	}
	rl.Store = history.New(history.Config{Retention: time.Hour})
	rl.Journal = history.NewJournal(64)
	rl.Pipe = anomaly.NewPipeline(rl.Store, rl.Journal, cfg)
	rl.Pipe.Net = func(tid core.TenantID) *core.VirtualNet { return l.C.Topology().Tenants[tid] }
	rl.Mon = history.NewMonitor(l.Ctl, rl.Store, history.MonitorConfig{})
	rl.Mon.AfterSweep = rl.Pipe.AfterSweep
	// Measurement waits advance virtual time and then sweep, so both
	// endpoints of a live SampleInterval window land in the store.
	l.Ctl.Wait = func(d time.Duration) {
		l.C.Run(d)
		rl.Mon.Sweep(context.Background())
	}
	return rl
}

// monitorFor advances virtual time at the monitor cadence, sweeping after
// every step — the virtual-time equivalent of Monitor.Run.
func (rl *recorderLab) monitorFor(d, cadence time.Duration) {
	for elapsed := time.Duration(0); elapsed < d; elapsed += cadence {
		rl.C.Run(cadence)
		rl.Mon.Sweep(context.Background())
	}
}

// RunHistoryReplay executes the acceptance experiment.
func RunHistoryReplay() (*HistoryReplayResult, error) {
	res := &HistoryReplayResult{}

	// --- Algorithm 1: the Fig 11 memory-bandwidth scenario. ---
	const tid = core.TenantID("t-replay")
	l, err := NewSinkFleet(tid, 4, 2e9, 3.4e9/4)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	rl := newRecorderLab(l.Lab, anomaly.Config{SLO: anomaly.SLOConfig{Default: anomaly.SLO{
		DropRatePPS:      100,
		Window:           anomaly.Duration(3 * time.Second),
		Cooldown:         anomaly.Duration(time.Minute),
		DisableBaselines: true, // this experiment exercises the drop-rate SLO path alone
	}}})

	rl.monitorFor(5*time.Second, time.Second) // healthy baseline on record
	l.M.AddHog(MemHog("memvms", 23e9))
	rl.monitorFor(5*time.Second, time.Second) // contention on record; watcher fires

	const window = 3 * time.Second
	liveStart := l.C.Now()
	q0 := rl.Queries.Load()
	stackLive, err := diagnosis.FindContentionAndBottleneck(l.Ctl, tid, window)
	if err != nil {
		return nil, fmt.Errorf("live stack diagnosis: %w", err)
	}
	res.StackLive = stackLive
	res.StackQueriesLive = rl.Queries.Load() - q0
	res.LiveBlocked += l.C.Now() - liveStart

	asOf, _ := rl.Store.NewestTS(tid)
	q0 = rl.Queries.Load()
	wall := time.Now()
	stackHist, err := rl.Store.DiagnoseStack(tid, window, asOf)
	res.HistoryWall += time.Since(wall)
	if err != nil {
		return nil, fmt.Errorf("history stack diagnosis: %w", err)
	}
	res.StackHistory = stackHist
	res.StackQueriesHistory = rl.Queries.Load() - q0
	res.StoreStats = rl.Store.Stats()
	res.Events = rl.Journal.Since(0, 0)

	// --- Algorithm 2: the Fig 12 chain-propagation scenario. ---
	cl, err := NewChain3(tid)
	if err != nil {
		return nil, err
	}
	defer cl.Close()
	crl := newRecorderLab(cl, anomaly.Config{SLO: anomaly.SLOConfig{Default: anomaly.SLO{DisableBaselines: true}}})
	crl.monitorFor(3*time.Second, time.Second)

	const chainWindow = 2 * time.Second
	liveStart = cl.C.Now()
	q0 = crl.Queries.Load()
	chainLive, err := diagnosis.LocateRootCause(cl.Ctl, tid, chainWindow)
	if err != nil {
		return nil, fmt.Errorf("live chain diagnosis: %w", err)
	}
	res.ChainLive = chainLive
	res.ChainQueriesLive = crl.Queries.Load() - q0
	res.LiveBlocked += cl.C.Now() - liveStart

	asOf, _ = crl.Store.NewestTS(tid)
	q0 = crl.Queries.Load()
	wall = time.Now()
	chainHist, err := crl.Store.DiagnoseChain(tid, chainWindow, asOf, cl.C.Topology().Tenants[tid])
	res.HistoryWall += time.Since(wall)
	if err != nil {
		return nil, fmt.Errorf("history chain diagnosis: %w", err)
	}
	res.ChainHistory = chainHist
	res.ChainQueriesHistory = crl.Queries.Load() - q0
	return res, nil
}
