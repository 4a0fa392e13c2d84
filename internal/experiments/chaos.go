package experiments

import (
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"perfsight/internal/agent"
	"perfsight/internal/controller"
	"perfsight/internal/core"
	"perfsight/internal/diagnosis"
	"perfsight/internal/middlebox"
	"perfsight/internal/sim"
	"perfsight/internal/wire"
)

// ChaosFault is one parsed -chaos fault. Zero Heal means the fault never
// heals (the lab substitutes its default heal time); Offset and Latency
// are meaningful only for the skew and slowdisk kinds.
type ChaosFault struct {
	Kind    string // crash | partition | skew | slowdisk
	Agents  []core.MachineID
	At      time.Duration
	Heal    time.Duration
	Offset  time.Duration
	Latency time.Duration
}

// String renders the fault back in roughly the spec grammar.
func (f ChaosFault) String() string {
	names := make([]string, len(f.Agents))
	for i, a := range f.Agents {
		names[i] = string(a)
	}
	s := fmt.Sprintf("%s:%s@%s", f.Kind, strings.Join(names, "+"), f.At)
	if f.Offset != 0 {
		s += fmt.Sprintf(",offset=%s", f.Offset)
	}
	if f.Latency != 0 {
		s += fmt.Sprintf(",latency=%s", f.Latency)
	}
	if f.Heal != 0 {
		s += fmt.Sprintf(",heal=%s", f.Heal)
	}
	return s
}

// ParseChaosSpec parses a -chaos fault schedule. The grammar is a
// semicolon-separated list of faults, each `kind:key=value,key=value`,
// where exactly one value carries an `@duration` suffix giving the fault's
// virtual injection time:
//
//	crash:agent=m0@5.5s,heal=9.5s
//	partition:agents=m1+m2@5.5s,heal=9.5s
//	skew:agent=m0,offset=250ms@500ms
//	slowdisk:agent=m0,latency=4ms@1s,heal=2s
//
// Durations use Go syntax (ms, s, m). An empty spec parses to nil.
func ParseChaosSpec(spec string) ([]ChaosFault, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	var out []ChaosFault
	for _, fs := range strings.Split(spec, ";") {
		fs = strings.TrimSpace(fs)
		if fs == "" {
			continue
		}
		f, err := parseChaosFault(fs)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("chaos: spec %q contains no faults", spec)
	}
	return out, nil
}

func parseChaosFault(s string) (ChaosFault, error) {
	kind, rest, ok := strings.Cut(s, ":")
	if !ok {
		return ChaosFault{}, fmt.Errorf("chaos: fault %q: missing ':' between kind and parameters", s)
	}
	kind = strings.TrimSpace(kind)
	switch kind {
	case "crash", "partition", "skew", "slowdisk":
	default:
		return ChaosFault{}, fmt.Errorf("chaos: unknown fault kind %q (want crash, partition, skew or slowdisk)", kind)
	}
	f := ChaosFault{Kind: kind, At: -1}
	for _, p := range strings.Split(rest, ",") {
		p = strings.TrimSpace(p)
		key, val, ok := strings.Cut(p, "=")
		if !ok || key == "" {
			return ChaosFault{}, fmt.Errorf("chaos: %s: parameter %q is not key=value", kind, p)
		}
		if v, at, found := strings.Cut(val, "@"); found {
			if f.At >= 0 {
				return ChaosFault{}, fmt.Errorf("chaos: %s: '@time' given more than once", kind)
			}
			d, err := time.ParseDuration(at)
			if err != nil || d < 0 {
				return ChaosFault{}, fmt.Errorf("chaos: %s: bad '@time' %q (want a non-negative Go duration)", kind, at)
			}
			f.At = d
			val = v
		}
		parseDur := func() (time.Duration, error) {
			d, err := time.ParseDuration(val)
			if err != nil || d < 0 {
				return 0, fmt.Errorf("chaos: %s: bad %s %q (want a non-negative Go duration)", kind, key, val)
			}
			return d, nil
		}
		var err error
		switch key {
		case "agent", "agents":
			for _, a := range strings.Split(val, "+") {
				if a == "" {
					return ChaosFault{}, fmt.Errorf("chaos: %s: empty agent name in %q", kind, p)
				}
				f.Agents = append(f.Agents, core.MachineID(a))
			}
		case "heal":
			f.Heal, err = parseDur()
		case "offset":
			f.Offset, err = parseDur()
		case "latency":
			f.Latency, err = parseDur()
		default:
			return ChaosFault{}, fmt.Errorf("chaos: %s: unknown key %q (want agent, agents, heal, offset or latency)", kind, key)
		}
		if err != nil {
			return ChaosFault{}, err
		}
	}
	if f.At < 0 {
		return ChaosFault{}, fmt.Errorf("chaos: %s: no '@time' — suffix one value with @duration, e.g. agent=m0@5.5s", kind)
	}
	if len(f.Agents) == 0 {
		return ChaosFault{}, fmt.Errorf("chaos: %s: no agent named (agent=... or agents=a+b)", kind)
	}
	if f.Heal != 0 && f.Heal <= f.At {
		return ChaosFault{}, fmt.Errorf("chaos: %s: heal %s is not after the fault at %s", kind, f.Heal, f.At)
	}
	if kind == "skew" && f.Offset == 0 {
		return ChaosFault{}, fmt.Errorf("chaos: skew: missing offset=<duration>")
	}
	if kind == "slowdisk" && f.Latency == 0 {
		return ChaosFault{}, fmt.Errorf("chaos: slowdisk: missing latency=<duration>")
	}
	return f, nil
}

// errAgentUnreachable is what a crashed or partitioned agent's client
// returns — indistinguishable, from the controller's seat, from a dead
// process or a dropped link.
var errAgentUnreachable = errors.New("chaos: agent unreachable")

// gatedClient wraps an agent client with a chaos kill switch.
type gatedClient struct {
	inner controller.AgentClient
	down  atomic.Bool
}

func (g *gatedClient) Query(q wire.Query) ([]core.Record, error) {
	if g.down.Load() {
		return nil, errAgentUnreachable
	}
	return g.inner.Query(q)
}

func (g *gatedClient) ListElements() ([]wire.ElementMeta, error) {
	if g.down.Load() {
		return nil, errAgentUnreachable
	}
	return g.inner.ListElements()
}

func (g *gatedClient) Ping() (time.Duration, error) {
	if g.down.Load() {
		return 0, errAgentUnreachable
	}
	return g.inner.Ping()
}

func (g *gatedClient) Close() error { return g.inner.Close() }

// ChaosOutcome is one fault experiment's asserted result.
type ChaosOutcome struct {
	Fault  string
	Checks []string
	OK     bool
}

// ChaosResult aggregates the chaos lab's four fault experiments.
type ChaosResult struct {
	Outcomes []ChaosOutcome
}

// AllCorrect reports whether every fault experiment passed its checks.
func (r *ChaosResult) AllCorrect() bool {
	for _, o := range r.Outcomes {
		if !o.OK {
			return false
		}
	}
	return len(r.Outcomes) > 0
}

// String renders the per-fault check list.
func (r *ChaosResult) String() string {
	var b strings.Builder
	b.WriteString("Chaos lab: injected faults vs diagnosis behavior\n")
	for _, o := range r.Outcomes {
		status := "ok"
		if !o.OK {
			status = "FAIL"
		}
		fmt.Fprintf(&b, "%-4s %s\n", status, o.Fault)
		for _, c := range o.Checks {
			fmt.Fprintf(&b, "       %s\n", c)
		}
	}
	return b.String()
}

const chaosTenant = core.TenantID("t-chaos")

// chaosDefaults is the built-in fault schedule, tuned to the lab's fixed
// diagnosis cadence (2s warmup, then 3s measurement windows).
func chaosDefaults() map[string]ChaosFault {
	return map[string]ChaosFault{
		"crash":     {Kind: "crash", Agents: []core.MachineID{"m0"}, At: 5500 * time.Millisecond, Heal: 9500 * time.Millisecond},
		"partition": {Kind: "partition", Agents: []core.MachineID{"m1"}, At: 5500 * time.Millisecond, Heal: 9500 * time.Millisecond},
		"skew":      {Kind: "skew", Agents: []core.MachineID{"m0"}, At: 500 * time.Millisecond, Offset: 250 * time.Millisecond},
		"slowdisk":  {Kind: "slowdisk", Agents: []core.MachineID{"m0"}, At: time.Second, Heal: 2 * time.Second, Latency: 4 * time.Millisecond},
	}
}

// RunChaosLab parses spec (empty = built-in schedule) and runs one
// asserted experiment per fault kind present: agent crash/restart, network
// partition of a machine subset, per-agent clock skew, and slow-disk
// latency on the QEMU log-tail channel. Spec faults override the default
// schedule for their kind; kinds absent from a non-empty spec are skipped.
func RunChaosLab(spec string) (*ChaosResult, error) {
	parsed, err := ParseChaosSpec(spec)
	if err != nil {
		return nil, err
	}
	sched := chaosDefaults()
	kinds := []string{"crash", "partition", "skew", "slowdisk"}
	if len(parsed) > 0 {
		kinds = kinds[:0]
		for _, f := range parsed {
			def := sched[f.Kind]
			if f.Heal == 0 {
				f.Heal = def.Heal
			}
			if f.Offset == 0 {
				f.Offset = def.Offset
			}
			if f.Latency == 0 {
				f.Latency = def.Latency
			}
			sched[f.Kind] = f
			kinds = append(kinds, f.Kind)
		}
	}
	res := &ChaosResult{}
	runners := map[string]func(ChaosFault) (ChaosOutcome, error){
		"crash":     chaosCrash,
		"partition": chaosPartition,
		"skew":      chaosSkew,
		"slowdisk":  chaosSlowDisk,
	}
	seen := map[string]bool{}
	for _, k := range kinds {
		if seen[k] {
			return nil, fmt.Errorf("chaos: fault kind %q given twice", k)
		}
		seen[k] = true
		o, err := runners[k](sched[k])
		if err != nil {
			return nil, fmt.Errorf("chaos: %s experiment: %w", k, err)
		}
		res.Outcomes = append(res.Outcomes, o)
	}
	return res, nil
}

// validateChaosWindow checks a crash/partition fault against the lab's
// fixed diagnosis cadence: diagnosis windows are [2s,5s], [5s,8s] and
// [heal+,heal+3s], so the outage must start after the first window's last
// sample and still cover the second window's 8s sample.
func validateChaosWindow(f ChaosFault) error {
	if f.At <= 5*time.Second || f.At > 8*time.Second || f.Heal <= 8*time.Second {
		return fmt.Errorf("lab timeline needs 5s < at <= 8s < heal (diagnosis samples at 5s and 8s); got at=%s heal=%s", f.At, f.Heal)
	}
	return nil
}

// chaosCrash reruns the Table 1 memory-bandwidth probe through an agent
// outage: the verdict is correct before the crash, diagnosis fails (every
// element unreachable) during it, and the verdict is correct again after
// the restart.
func chaosCrash(f ChaosFault) (ChaosOutcome, error) {
	out := ChaosOutcome{Fault: f.String(), OK: true}
	if err := validateChaosWindow(f); err != nil {
		return out, err
	}
	if len(f.Agents) != 1 || f.Agents[0] != "m0" {
		return out, fmt.Errorf("the crash lab's only machine is m0; got agents %v", f.Agents)
	}
	membw, _ := FaultByName("membw")
	l, inject, err := membw.Build(probeTenant)
	if err != nil {
		return out, err
	}
	defer l.Close()
	gate := &gatedClient{inner: &controller.LocalClient{A: l.Agents["m0"]}}
	l.Ctl.RegisterAgent("m0", gate)
	ch := sim.NewChaos(1)
	l.C.AddPreTick(ch)
	ch.Window(f.At, f.Heal, "crash-m0",
		func(time.Duration) { gate.down.Store(true) },
		func(time.Duration) { gate.down.Store(false) })
	inject()
	check := func(ok bool, format string, args ...any) {
		out.Checks = append(out.Checks, fmt.Sprintf(format, args...))
		if !ok {
			out.OK = false
		}
	}

	pre, err := diagnosis.FindContentionAndBottleneck(l.Ctl, probeTenant, 3*time.Second)
	if err != nil {
		return out, fmt.Errorf("pre-crash diagnosis: %w", err)
	}
	check(pre.Inferred == diagnosis.ResourceMemoryBandwidth,
		"pre-crash verdict %s (want %s)", pre.Inferred, diagnosis.ResourceMemoryBandwidth)

	_, derr := diagnosis.FindContentionAndBottleneck(l.Ctl, probeTenant, 3*time.Second)
	check(derr != nil, "during crash: diagnosis error = %v (want non-nil)", derr)

	l.Run(f.Heal - l.C.Now() + 2*l.C.Dt())
	post, err := diagnosis.FindContentionAndBottleneck(l.Ctl, probeTenant, 3*time.Second)
	if err != nil {
		return out, fmt.Errorf("post-restart diagnosis: %w", err)
	}
	check(post.Inferred == diagnosis.ResourceMemoryBandwidth,
		"post-restart verdict %s (want %s)", post.Inferred, diagnosis.ResourceMemoryBandwidth)
	return out, nil
}

// rankedHasMachine reports whether any ranked element lives on machine m.
func rankedHasMachine(rep *diagnosis.ContentionReport, m core.MachineID) bool {
	prefix := string(m) + "/"
	for _, el := range rep.Ranked {
		if strings.HasPrefix(string(el.Element), prefix) {
			return true
		}
	}
	return false
}

// chaosPartition runs a two-machine tenant (the hog and the loss are on
// m0; m1 is healthy) and partitions m1 away from the controller. The
// Algorithm 1 verdict must hold from m0's partial data alone, with m1's
// elements dropping out of the ranking during the partition and
// reappearing after it heals.
func chaosPartition(f ChaosFault) (ChaosOutcome, error) {
	out := ChaosOutcome{Fault: f.String(), OK: true}
	if err := validateChaosWindow(f); err != nil {
		return out, err
	}
	for _, a := range f.Agents {
		if a != "m1" {
			return out, fmt.Errorf("the partition lab can only cut off m1 (m0 carries the fault under diagnosis); got agents %v", f.Agents)
		}
	}

	membw, _ := FaultByName("membw") // m0: the memory-bandwidth scenario
	l, inject, err := membw.Build(probeTenant)
	if err != nil {
		return out, err
	}
	defer l.Close()
	// m1: one lightly loaded sink VM on a second machine of the tenant.
	l.DefaultMachine("m1")
	l.AddSinkFleet("m1", probeTenant, 1, 2e9, 100e6)
	if err := l.RefreshAgent("m1"); err != nil {
		return out, err
	}

	gate := &gatedClient{inner: &controller.LocalClient{A: l.Agents["m1"]}}
	l.Ctl.RegisterAgent("m1", gate)
	ch := sim.NewChaos(1)
	l.C.AddPreTick(ch)
	ch.Window(f.At, f.Heal, "partition-m1",
		func(time.Duration) { gate.down.Store(true) },
		func(time.Duration) { gate.down.Store(false) })
	inject()
	check := func(ok bool, format string, args ...any) {
		out.Checks = append(out.Checks, fmt.Sprintf(format, args...))
		if !ok {
			out.OK = false
		}
	}

	pre, err := diagnosis.FindContentionAndBottleneck(l.Ctl, probeTenant, 3*time.Second)
	if err != nil {
		return out, fmt.Errorf("pre-partition diagnosis: %w", err)
	}
	check(pre.Inferred == diagnosis.ResourceMemoryBandwidth,
		"pre-partition verdict %s (want %s)", pre.Inferred, diagnosis.ResourceMemoryBandwidth)
	check(rankedHasMachine(pre, "m1"), "pre-partition ranking covers m1 = %v (want true)", rankedHasMachine(pre, "m1"))

	during, err := diagnosis.FindContentionAndBottleneck(l.Ctl, probeTenant, 3*time.Second)
	if err != nil {
		return out, fmt.Errorf("diagnosis during partition (partial data should still diagnose): %w", err)
	}
	check(during.Inferred == diagnosis.ResourceMemoryBandwidth,
		"during partition verdict %s from m0's partial data (want %s)", during.Inferred, diagnosis.ResourceMemoryBandwidth)
	check(!rankedHasMachine(during, "m1"), "during partition ranking covers m1 = %v (want false)", rankedHasMachine(during, "m1"))

	l.Run(f.Heal - l.C.Now() + 2*l.C.Dt())
	post, err := diagnosis.FindContentionAndBottleneck(l.Ctl, probeTenant, 3*time.Second)
	if err != nil {
		return out, fmt.Errorf("post-heal diagnosis: %w", err)
	}
	check(post.Inferred == diagnosis.ResourceMemoryBandwidth,
		"post-heal verdict %s (want %s)", post.Inferred, diagnosis.ResourceMemoryBandwidth)
	check(rankedHasMachine(post, "m1"), "post-heal ranking covers m1 = %v (want true)", rankedHasMachine(post, "m1"))
	return out, nil
}

// chaosSkew serves a real agent over TCP with an injectable clock offset
// and checks the controller's per-connection skew estimator (the one the
// trace spine uses for span correction) converges to the injected skew.
func chaosSkew(f ChaosFault) (ChaosOutcome, error) {
	out := ChaosOutcome{Fault: f.String(), OK: true}
	if len(f.Agents) != 1 || f.Agents[0] != "m0" {
		return out, fmt.Errorf("the skew lab's only machine is m0; got agents %v", f.Agents)
	}
	if f.Offset < 10*time.Millisecond {
		return out, fmt.Errorf("skew offset %s below the estimator's noise floor; use >= 10ms", f.Offset)
	}

	l := NewLab(time.Millisecond)
	defer l.Close()
	l.DefaultMachine("m0")
	sink := middlebox.NewSink("m0/vm0/app", 1e9)
	l.C.PlaceVM("m0", "vm0", 1.0, 1e9, sink)
	l.C.AssignStack(chaosTenant, "m0")
	l.C.AssignVM(chaosTenant, "m0", "vm0")

	// The agent's clock is wall time plus a runtime-settable offset; the
	// chaos fault flips the offset mid-run.
	var skewNS atomic.Int64
	l.SetAgentOptions(agent.BuildOptions{
		Clock: func() int64 { return time.Now().UnixNano() + skewNS.Load() },
	})
	if err := l.BuildAgents(); err != nil {
		return out, err
	}
	l.Agents["m0"].AllowSpans = true // per-query agent_ts rides the spans session
	tc, err := l.ServeTCP("m0")
	if err != nil {
		return out, err
	}
	tc.Spans = true
	l.Ctl.RegisterAgent("m0", tc)

	ch := sim.NewChaos(1)
	l.C.AddPreTick(ch)
	ch.At(f.At, "skew-m0", func(time.Duration) { skewNS.Store(f.Offset.Nanoseconds()) })

	ids := l.Ctl.TenantElements(chaosTenant, func(core.ElementID, core.ElementInfo) bool { return true })
	sample := func(n int) error {
		for i := 0; i < n; i++ {
			if _, err := l.Ctl.Sample(chaosTenant, ids); err != nil {
				return err
			}
		}
		return nil
	}
	check := func(ok bool, format string, args ...any) {
		out.Checks = append(out.Checks, fmt.Sprintf(format, args...))
		if !ok {
			out.OK = false
		}
	}

	if err := sample(4); err != nil {
		return out, fmt.Errorf("baseline sampling: %w", err)
	}
	base, seen := tc.SkewOffset()
	check(seen && time.Duration(abs64(base)) < f.Offset/4,
		"baseline skew estimate %s (want |est| < %s)", time.Duration(base), f.Offset/4)

	l.Run(f.At + l.C.Dt()) // cross the injection time
	if err := sample(12); err != nil {
		return out, fmt.Errorf("post-skew sampling: %w", err)
	}
	est, seen := tc.SkewOffset()
	lo, hi := f.Offset*6/10, f.Offset*14/10
	check(seen && time.Duration(est) >= lo && time.Duration(est) <= hi,
		"post-skew estimate %s after 12 round trips (want within [%s, %s] of injected %s)",
		time.Duration(est), lo, hi, f.Offset)
	return out, nil
}

func abs64(v int64) int64 {
	if v < 0 {
		return -v
	}
	return v
}

// chaosSlowDisk injects latency into the QEMU log-tail channel (the
// disk-bound collection path) and checks the sweep wall time degrades by
// at least the injected amount per VM while the fault holds, and recovers
// after it heals.
func chaosSlowDisk(f ChaosFault) (ChaosOutcome, error) {
	out := ChaosOutcome{Fault: f.String(), OK: true}
	if len(f.Agents) != 1 || f.Agents[0] != "m0" {
		return out, fmt.Errorf("the slowdisk lab's only machine is m0; got agents %v", f.Agents)
	}
	if f.Heal == 0 || f.Heal <= f.At {
		return out, fmt.Errorf("slowdisk needs heal > at; got at=%s heal=%s", f.At, f.Heal)
	}

	l := NewLab(time.Millisecond)
	defer l.Close()
	l.DefaultMachine("m0")
	const vms = 2
	for i := 0; i < vms; i++ {
		vm := core.VMID(fmt.Sprintf("vm%d", i))
		sink := middlebox.NewSink(core.ElementID(fmt.Sprintf("m0/%s/app", vm)), 1e9)
		l.C.PlaceVM("m0", vm, 1.0, 1e9, sink)
	}
	disk := &agent.LatencyVar{}
	l.SetAgentOptions(agent.BuildOptions{QEMULogExtra: disk})
	if err := l.BuildAgents(); err != nil {
		return out, err
	}
	l.C.AssignStack(chaosTenant, "m0")
	for i := 0; i < vms; i++ {
		l.C.AssignVM(chaosTenant, "m0", core.VMID(fmt.Sprintf("vm%d", i)))
	}

	ch := sim.NewChaos(1)
	l.C.AddPreTick(ch)
	ch.Window(f.At, f.Heal, "slowdisk-m0",
		func(time.Duration) { disk.Set(f.Latency) },
		func(time.Duration) { disk.Set(0) })

	ids := l.Ctl.TenantElements(chaosTenant, func(core.ElementID, core.ElementInfo) bool { return true })
	sweep := func() (time.Duration, error) {
		start := time.Now()
		_, err := l.Ctl.Sample(chaosTenant, ids)
		return time.Since(start), err
	}
	check := func(ok bool, format string, args ...any) {
		out.Checks = append(out.Checks, fmt.Sprintf(format, args...))
		if !ok {
			out.OK = false
		}
	}

	l.Run(f.At / 2)
	before, err := sweep()
	if err != nil {
		return out, fmt.Errorf("baseline sweep: %w", err)
	}
	l.Run(f.At - l.C.Now() + l.C.Dt())
	during, err := sweep()
	if err != nil {
		return out, fmt.Errorf("slow-disk sweep: %w", err)
	}
	l.Run(f.Heal - l.C.Now() + l.C.Dt())
	after, err := sweep()
	if err != nil {
		return out, fmt.Errorf("post-heal sweep: %w", err)
	}

	floor := time.Duration(vms) * f.Latency
	check(during >= floor, "sweep during fault took %s (injected floor %s for %d VM logs)", during, floor, vms)
	check(before < during, "baseline sweep %s < degraded sweep %s", before, during)
	check(after < during, "post-heal sweep %s < degraded sweep %s", after, during)
	return out, nil
}
