package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"perfsight/internal/controller"
	"perfsight/internal/core"
	"perfsight/internal/diagnosis"
	"perfsight/internal/history"
	"perfsight/internal/machine"
)

// diagReplaySize sizes the diagnose-replay workload.
type diagReplaySize struct {
	Hogged     int           `json:"hogged_machines"` // Figure 11 shape; a memory hog runs on each during the hog window
	Light      int           `json:"light_machines"`
	Chains     int           `json:"chain_machines"` // Figure 12 chain with an overloaded server
	VMs        int           `json:"vms_per_machine"`
	Flows      int           `json:"flows_per_vm"`
	Sweeps     int           `json:"prefill_sweeps"`
	Step       time.Duration `json:"sim_step_ns"`
	HogFrom    int           `json:"hog_from_sweep"`
	HogTo      int           `json:"hog_to_sweep"`
	Window     time.Duration `json:"diagnosis_window_ns"`
	AppendRate int           `json:"append_records_per_s"`
	Setups     int           `json:"setups"`
}

var diagReplayFull = diagReplaySize{Hogged: 4, Light: 3, Chains: 1, VMs: 4, Flows: 4,
	Sweeps: 600, Step: 10 * time.Millisecond, HogFrom: 200, HogTo: 400,
	Window: 500 * time.Millisecond, AppendRate: 20000, Setups: 5}

// tenantSweep is one tenant's records from one sweep, as recorded.
type tenantSweep struct {
	tid    core.TenantID
	replay core.TenantID // where the appender writes these records back
	recs   []core.Record
}

// recording is the workload's input: every sweep of the generated fleet,
// in order, plus what the queries need to know about it.
type recording struct {
	sweeps  []tenantSweep
	records int
	spanNS  int64 // simulated time the recording covers
	stack   []stackTenant
	chains  []chainTenant
}

type stackTenant struct {
	tid     core.TenantID
	hogged  bool
	vswitch core.ElementID
	pnic    core.ElementID
}

type chainTenant struct {
	tid  core.TenantID
	net  *core.VirtualNet
	root core.ElementID // the overloaded server
}

// record generates the input: build the fleet, then sweep it in lock step
// with the simulation through a controller over LocalClients, running the
// memory hogs between the two hog sweeps.
func record(seed uint64, sz diagReplaySize, scratch string) (*recording, error) {
	var roles []role
	for i := 0; i < sz.Hogged; i++ {
		roles = append(roles, roleLoaded)
	}
	for i := 0; i < sz.Light; i++ {
		roles = append(roles, roleLight)
	}
	for i := 0; i < sz.Chains; i++ {
		roles = append(roles, roleChain)
	}
	l, err := buildLab(seed, roles, sz.VMs, sz.Flows, scratch)
	if err != nil {
		return nil, err
	}
	defer l.close()
	ctl := controller.New(l.c.Topology())
	rec := &recording{}
	for i, mid := range l.mids {
		ctl.RegisterAgent(mid, &controller.LocalClient{A: l.agents[mid]})
		tid := machineTenant(mid)
		if roles[i] == roleChain {
			rec.chains = append(rec.chains, chainTenant{tid, l.c.Topology().Tenants[tid], appID(mid, chainVMs[2])})
			continue
		}
		stack := l.c.Machine(mid).Stack
		rec.stack = append(rec.stack, stackTenant{tid, roles[i] == roleLoaded, stack.VSwitch.ID(), stack.PNic.ID()})
	}
	ids := map[core.TenantID][]core.ElementID{}
	for _, mid := range l.mids {
		ids[machineTenant(mid)] = ctl.TenantElements(machineTenant(mid), nil) // sorted
	}
	var hogs []*machine.Hog
	for i := 0; i < sz.Sweeps; i++ {
		switch i {
		case sz.HogFrom:
			for _, mid := range l.mids[:sz.Hogged] {
				hogs = append(hogs, l.c.Machine(mid).AddHog(memoryHog()))
			}
		case sz.HogTo:
			for j, mid := range l.mids[:sz.Hogged] {
				l.c.Machine(mid).RemoveHog(hogs[j])
			}
		}
		l.c.Run(sz.Step)
		for _, mid := range l.mids {
			tid := machineTenant(mid)
			got, err := ctl.Sample(tid, ids[tid])
			if err != nil {
				return nil, fmt.Errorf("recording sweep %d: %w", i, err)
			}
			ts := tenantSweep{tid: tid, replay: "replay-" + tid, recs: make([]core.Record, 0, len(got))}
			for _, id := range ids[tid] { // in element order: the recording must not depend on map order
				ts.recs = append(ts.recs, got[id])
			}
			rec.sweeps = append(rec.sweeps, ts)
			rec.records += len(ts.recs)
		}
	}
	rec.spanNS = l.c.NowNS()
	return rec, nil
}

// fill is the workload's set-up: a fresh store loaded with the recording.
func (rec *recording) fill() *history.Store {
	store := history.New(history.Config{})
	for _, ts := range rec.sweeps {
		for _, r := range ts.recs {
			store.Append(ts.tid, r)
		}
	}
	return store
}

// query is one operator request against the store.
type query struct {
	kind  int // queryStack, queryChain, querySeries, queryFlows in rotation
	stack *stackTenant
	chain *chainTenant
	asOf  int64
	sure  bool // asOf lies where the expected verdict is known
}

const (
	queryStack = iota
	queryChain
	querySeries
	queryFlows
	queryKinds
)

// queries draws the operator's requests from the seed: tenants uniformly,
// as-of times uniformly over the part of the recording the raw rings still
// hold. A stack verdict is known when the tenant's machine was hogged and
// the whole diagnosis window lies inside the hog window; a chain verdict
// is known once the chain has saturated, from the hog window's start on.
func (rec *recording) queries(seed uint64, sz diagReplaySize, n int) []query {
	rng := rand.New(rand.NewSource(int64(seed)))
	step := int64(sz.Step)
	hogFrom, hogTo := int64(sz.HogFrom)*step, int64(sz.HogTo)*step
	// The raw rings hold 512 sweeps, and a window must start inside them.
	lo := max(rec.spanNS-500*step, 0) + int64(sz.Window) + step
	out := make([]query, n)
	for i := range out {
		q := query{kind: i % queryKinds, asOf: lo + rng.Int63n(rec.spanNS-lo)}
		q.stack = &rec.stack[rng.Intn(len(rec.stack))]
		q.chain = &rec.chains[rng.Intn(len(rec.chains))]
		switch q.kind {
		case queryStack:
			// Every other stack query is aimed inside the hog window, so
			// the known verdicts are a fixed share of the mix.
			if i%(2*queryKinds) == 0 {
				q.stack = &rec.stack[rng.Intn(sz.Hogged)]
				q.asOf = hogFrom + int64(sz.Window) + 10*step + rng.Int63n(hogTo-hogFrom-int64(sz.Window)-10*step)
			}
			q.sure = q.stack.hogged && q.asOf-int64(sz.Window)-10*step >= hogFrom && q.asOf <= hogTo
		case queryChain:
			q.sure = q.asOf >= hogFrom
		}
		out[i] = q
	}
	return out
}

// replayResult is what the query loop measured.
type replayResult struct {
	sl         slices  // one op per diagnosis; the appender's CPU is in, as the operator's box pays it
	diagnoseMS samples // DiagnoseStack and DiagnoseChain
	stackUS    samples
	chainUS    samples
	seriesUS   samples
	flowsUS    samples
	rounds     int
	checked    int // diagnoses whose expected verdict was known
	wrong      int // of those, verdicts that differed
	errors     int // queries that returned an error
	appended   int
	lateMS     samples // appender: how late each batch ran
}

// ask runs one query against the store and judges a known verdict.
func (r *replayResult) ask(store *history.Store, q *query, window time.Duration) {
	t := time.Now()
	switch q.kind {
	case queryStack:
		rep, err := store.DiagnoseStack(q.stack.tid, window, q.asOf)
		d := time.Since(t)
		r.diagnoseMS, r.stackUS = append(r.diagnoseMS, ms(d)), append(r.stackUS, us(d))
		if err != nil {
			r.errors++
		} else if q.sure {
			r.checked++
			if rep.Inferred != diagnosis.ResourceMemoryBandwidth || rep.Scope != diagnosis.ScopeContention {
				r.wrong++
			}
		}
	case queryChain:
		rep, err := store.DiagnoseChain(q.chain.tid, window, q.asOf, q.chain.net)
		d := time.Since(t)
		r.diagnoseMS, r.chainUS = append(r.diagnoseMS, ms(d)), append(r.chainUS, us(d))
		if err != nil {
			r.errors++
		} else if q.sure {
			r.checked++
			if len(rep.RootCauses) != 1 || rep.RootCauses[0] != q.chain.root {
				r.wrong++
			}
		}
	case querySeries:
		pts := store.Series(q.stack.tid, q.stack.pnic, "rx_bytes", q.asOf-int64(time.Second), q.asOf, 0)
		r.seriesUS = append(r.seriesUS, us(time.Since(t)))
		if len(pts) == 0 {
			r.errors++
		}
	case queryFlows:
		rec, ok := store.At(q.stack.tid, q.stack.vswitch, 0) // newest: the store keeps only the latest sketch blob
		if ok {
			_, ok = diagnosis.TopFlows(rec, 10)
		}
		r.flowsUS = append(r.flowsUS, us(time.Since(t)))
		if !ok {
			r.errors++
		}
	}
}

// replayer appends the recording back into a store, record by record,
// under the replay tenants — the same store, shards and locks as the
// queried series, but series of their own, so what the queries read stays
// as recorded. Each pass over the recording is shifted forward in time, so
// the points keep arriving in order.
type replayer struct {
	rec       *recording
	sweep, at int
	shift     int64
}

func (p *replayer) appendTo(store *history.Store, n int) {
	for ; n > 0; n-- {
		ts := &p.rec.sweeps[p.sweep]
		r := ts.recs[p.at]
		r.Timestamp += p.shift
		store.Append(ts.replay, r)
		if p.at++; p.at == len(ts.recs) {
			p.at = 0
			if p.sweep++; p.sweep == len(p.rec.sweeps) {
				p.sweep, p.shift = 0, p.shift+p.rec.spanNS
			}
		}
	}
}

// appendFor replays into the store at the given rate for d, open loop: a
// batch every 5 ms whether or not the last one was on time.
func (p *replayer) appendFor(store *history.Store, d time.Duration, rate int) (appended int, lateMS samples) {
	const every = 5 * time.Millisecond
	perBatch := rate * int(every) / int(time.Second)
	start := time.Now()
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * every)
		if due.Sub(start) >= d {
			return appended, lateMS
		}
		time.Sleep(time.Until(due))
		lateMS = append(lateMS, ms(time.Since(due)))
		p.appendTo(store, perBatch)
		appended += perBatch
	}
}

// runFor runs the closed query loop for d in this goroutine while a second
// goroutine appends beside it.
func (p *replayer) runFor(store *history.Store, qs []query, d time.Duration, sz diagReplaySize) replayResult {
	var r replayResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.appended, r.lateMS = p.appendFor(store, d, sz.AppendRate)
	}()
	// The meter laps every 16 rounds of the four query kinds, not every
	// query: reading the clocks costs a few µs and a query a few hundred.
	i, lap := 0, 0
	r.sl.start()
	for deadline := time.Now().Add(d); time.Now().Before(deadline); i++ {
		r.ask(store, &qs[i%len(qs)], sz.Window)
		if i%(16*queryKinds) == 0 {
			r.sl.stop(float64(len(r.diagnoseMS) - lap))
			lap = len(r.diagnoseMS)
			r.sl.start()
		}
	}
	r.sl.stop(float64(len(r.diagnoseMS) - lap))
	wg.Wait()
	r.rounds = i / queryKinds
	return r
}

func (r *replayResult) judge(out *outcome) {
	out.attempted += int64(len(r.diagnoseMS))
	out.failed += int64(r.wrong + r.errors)
	if r.wrong > 0 {
		out.fail("%d of %d diagnoses with a known verdict returned another", r.wrong, r.checked)
	}
	if r.errors > 0 {
		out.fail("%d queries returned an error or nothing", r.errors)
	}
	if r.checked == 0 {
		out.fail("no diagnosis with a known verdict was asked")
	}
	out.lateness["append_late_ms_p50"] = r.lateMS.sorted().quantile(0.5)
	out.lateness["append_late_ms_max"] = r.lateMS.sorted().quantile(1)
	out.lateness["appended_records"] = float64(r.appended)
}

func runDiagReplay(o options, sz diagReplaySize) (*outcome, error) {
	rec, err := record(o.seed, sz, o.outDir)
	if err != nil {
		return nil, err
	}
	return replayRecording(o, sz, rec)
}

// replayRecording runs the workload on a recording, and consumes it: the
// sweeps are released before the retained heap is read.
func replayRecording(o options, sz diagReplaySize, rec *recording) (*outcome, error) {
	out := newOutcome(sz)
	store, setups, _ := setUp(sz.Setups, func() (*history.Store, error) { return rec.fill(), nil }, func(*history.Store) {})
	qs := rec.queries(o.seed, sz, 4096)
	if o.trace {
		return out, traceDiagReplay(o, sz, rec, store, qs, out)
	}
	r := (&replayer{rec: rec}).runFor(store, qs, o.window(1), sz)
	r.judge(out)

	// The median is taken over Algorithm 1 alone: a chain diagnosis reads a
	// smaller tenant, and the median of the two mixed sits in the thin
	// region between their modes, where it does not hold still.
	stackMS := make(samples, len(r.stackUS))
	for i, v := range r.stackUS {
		stackMS[i] = v / 1e3
	}
	out.samples["op_ms_p50"] = describe(stackMS, "ms")
	out.set("setup_s", setups.sorted().quantile(0.5))
	out.set("op_ms_p50", stackMS.sorted().quantile(0.5))
	r.sl.report(out)
	rec.sweeps = nil // the recording is the benchmark's input, not the store's: it must not count as retained
	out.set("heap_retained_mb", heapLiveMB())
	runtime.KeepAlive(store)
	return out, nil
}
