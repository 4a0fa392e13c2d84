package history

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"perfsight/internal/controller"
	"perfsight/internal/core"
	"perfsight/internal/diagnosis"
)

// MonitorConfig shapes the background collection loop.
type MonitorConfig struct {
	// Interval is the sweep cadence. Default 2s.
	Interval time.Duration
	// Tenants restricts monitoring; empty means every tenant present in
	// the controller topology at sweep time.
	Tenants []core.TenantID
}

func (c MonitorConfig) withDefaults() MonitorConfig {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	return c
}

// Monitor drives Controller.SampleContext at a fixed cadence and appends
// every swept record into the flight-recorder store — the continuous
// statistics-gathering loop of §4, on top of the sweep layer's deadline,
// retry and breaker machinery, so one stalled agent cannot stall the
// recorder. Run it in a goroutine; Sweep is also callable directly, which
// is how virtual-time labs drive it.
type Monitor struct {
	Ctl   *controller.Controller
	Store *Store
	Cfg   MonitorConfig

	// AfterSweep, when set, observes every completed sweep (the watcher
	// hook). recs is the partial result map; err joins per-machine
	// failures, as from SampleContext.
	AfterSweep func(tid core.TenantID, recs map[core.ElementID]core.Record, err error)

	// Skip, when set, excludes elements hosted on machines it reports
	// true for. The push-ingest path sets it to ingest.Manager.Streaming,
	// demoting the monitor to a fallback sweeper: streamed machines are
	// already feeding the store on arrival, and double-appending them
	// would skew rate math. A machine whose stream drops automatically
	// falls back into the next sweep.
	Skip func(core.MachineID) bool

	tel     *monitorMetrics
	skipped atomic.Uint64
}

// NewMonitor builds a monitor over ctl writing into store.
func NewMonitor(ctl *controller.Controller, store *Store, cfg MonitorConfig) *Monitor {
	return &Monitor{Ctl: ctl, Store: store, Cfg: cfg.withDefaults()}
}

// tenants resolves the tenant set for one sweep, sorted for determinism.
func (m *Monitor) tenants() []core.TenantID {
	if len(m.Cfg.Tenants) > 0 {
		return m.Cfg.Tenants
	}
	topo := m.Ctl.Topology()
	out := make([]core.TenantID, 0, len(topo.Tenants))
	for tid := range topo.Tenants {
		out = append(out, tid)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Sweep collects every monitored tenant's elements once and appends the
// results. Partial failures are recorded (the healthy machines' records
// still land) and joined into the returned error.
func (m *Monitor) Sweep(ctx context.Context) error {
	var keep func(core.ElementID, core.ElementInfo) bool
	if m.Skip != nil {
		keep = func(_ core.ElementID, info core.ElementInfo) bool { return !m.Skip(info.Machine) }
	}
	var errs []error
	for _, tid := range m.tenants() {
		ids := m.Ctl.TenantElements(tid, keep)
		if len(ids) == 0 {
			continue
		}
		recs, err := m.Ctl.SampleContext(ctx, tid, ids)
		for _, rec := range recs {
			m.Store.Append(tid, rec)
		}
		if m.tel != nil {
			m.tel.sweeps.Inc()
			m.tel.records.Add(uint64(len(recs)))
			if err != nil {
				m.tel.sweepErrors.Inc()
			}
		}
		if m.AfterSweep != nil {
			m.AfterSweep(tid, recs, err)
		}
		if err != nil {
			errs = append(errs, fmt.Errorf("tenant %s: %w", tid, err))
		}
	}
	return errors.Join(errs...)
}

// Run sweeps at the configured cadence until ctx is done. Sweep errors
// are absorbed (the store keeps whatever arrived; the next tick retries);
// the only exit is ctx cancellation.
//
// A sweep that outlasts the interval does NOT earn an immediate re-sweep:
// the ticker buffers one tick while Sweep runs, and taking it on return
// would start a second sweep back-to-back — overlapping measurement
// windows whose intervals mis-measure every rate derived from them.
// Pending ticks are drained and counted as skipped instead, so the loop
// re-aligns to the cadence and the monitor_sweeps_skipped series says
// how often collection fell behind.
func (m *Monitor) Run(ctx context.Context) error {
	tick := time.NewTicker(m.Cfg.Interval)
	defer tick.Stop()
	_ = m.Sweep(ctx) // an immediate first sweep so history starts at t0
	m.drainPending(tick)
	for {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
			_ = m.Sweep(ctx)
			m.drainPending(tick)
		}
	}
}

// drainPending consumes ticks that fired while a sweep ran, counting
// each as a skipped sweep.
func (m *Monitor) drainPending(tick *time.Ticker) {
	for {
		select {
		case <-tick.C:
			m.skipped.Add(1)
			if m.tel != nil {
				m.tel.sweepsSkipped.Inc()
			}
		default:
			return
		}
	}
}

// SkippedSweeps reports how many sweep ticks were skipped because the
// previous sweep overran the interval.
func (m *Monitor) SkippedSweeps() uint64 { return m.skipped.Load() }

// DiagnoseStack runs Algorithm 1 (contention/bottleneck) purely from
// stored history: it synthesizes intervals for the tenant's
// virtualization-stack elements over the window ending at asOf (<= 0
// means newest) and analyzes them without touching any agent.
func (s *Store) DiagnoseStack(tid core.TenantID, window time.Duration, asOf int64) (*diagnosis.ContentionReport, error) {
	ivs := s.Intervals(tid, nil, window, asOf)
	for id, iv := range ivs {
		if !diagnosis.StackKind(iv.Cur.Kind()) {
			delete(ivs, id)
		}
	}
	if len(ivs) == 0 {
		return nil, fmt.Errorf("history: no stack intervals for tenant %q in window", tid)
	}
	return diagnosis.AnalyzeStackIntervals(ivs), nil
}

// DiagnoseChain runs Algorithm 2 (root cause under propagation) purely
// from stored history over the tenant's middlebox elements. net supplies
// the chain order; nil skips the pruning that needs topology.
func (s *Store) DiagnoseChain(tid core.TenantID, window time.Duration, asOf int64, net *core.VirtualNet) (*diagnosis.RootCauseReport, error) {
	ivs := s.Intervals(tid, nil, window, asOf)
	for id, iv := range ivs {
		if !diagnosis.ChainKind(iv.Cur.Kind()) {
			delete(ivs, id)
		}
	}
	if len(ivs) == 0 {
		return nil, fmt.Errorf("history: no middlebox intervals for tenant %q in window", tid)
	}
	return diagnosis.AnalyzeChainIntervals(ivs, net), nil
}
