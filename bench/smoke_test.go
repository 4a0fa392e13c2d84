package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"
)

// Tiny sizes: every layer a workload enters is entered, in a fraction of a
// second.
var (
	simFleetTiny = simFleetSize{Machines: 4, VMs: 2, Flows: 2,
		Tick: time.Millisecond, Warmup: 20 * time.Millisecond, Setups: 2}
	pullSweepTiny = pullSweepSize{Machines: 2, VMs: 2, Flows: 2, Step: 5 * time.Millisecond,
		Warmup: 110, HogAfter: 10, HogFor: 100, Setups: 1} // the hog starts a full SLO window into the recording
	pushIngestTiny = pushIngestSize{Agents: 2, Elements: 100, TenantSize: 10, MoveOneIn: 4,
		Cadence: 40 * time.Millisecond, FaultEvery: 80 * time.Millisecond, Warmup: 3, Setups: 1} // a cadence the race detector's slowdown cannot break
	// Sixteen flows on the hogged machine, as at full size: with the chain
	// machine's per-connection receive window in force, fewer do not load
	// the memory bus enough for the hog to cost packets.
	diagReplayTiny = diagReplaySize{Hogged: 1, Light: 1, Chains: 1, VMs: 4, Flows: 4,
		Sweeps: 300, Step: 10 * time.Millisecond, HogFrom: 100, HogTo: 200,
		Window: 300 * time.Millisecond, AppendRate: 2000, Setups: 1}
)

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// TestSpecMatchesBenchmarkJSON holds the tables in spec.go and main.go to
// the contract file one directory up: same workloads, same metrics, same
// units, directions and bounds, in the same order.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	if !reflect.DeepEqual(bj.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %+v\n code %+v", bj.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bj.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %+v\n code %+v", bj.PerLayer, perLayer)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bj.Workloads), len(workloads))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seen := map[string]bool{}
	unique := func(n string) {
		if !name.MatchString(n) || seen[n] {
			t.Errorf("name %q is malformed or used twice", n)
		}
		seen[n] = true
	}
	for i, w := range bj.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: json %q (%q), code %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
		unique(w.Name)
	}
	for _, m := range append(append([]metricSpec{}, endToEnd...), perLayer...) {
		unique(m.Name)
	}
	for _, m := range endToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "bench" || bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", bj.Paths, bj.RunSeconds)
	}
}

// wantNames asserts that a run reported exactly the given table.
func wantNames(t *testing.T, w workload, o options, out *outcome) {
	t.Helper()
	for _, p := range out.problems {
		t.Errorf("%s: check failed: %s", w.name, p)
	}
	ln, err := report(w, o, out, 0)
	if err != nil {
		t.Fatal(err)
	}
	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	if len(ln.Result.Metrics) != len(specs) {
		t.Errorf("%s: %d metrics reported, %d specified", w.name, len(ln.Result.Metrics), len(specs))
	}
	for _, s := range specs {
		m, ok := ln.Result.Metrics[s.Name]
		if !ok || m.Unit != s.Unit {
			t.Errorf("%s: metric %s missing or in unit %q, want %q", w.name, s.Name, m.Unit, s.Unit)
		}
		if !o.trace && m.Value <= 0 {
			t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, s.Name, m.Value)
		}
	}
	if ln.Result.Attempted < 1 || ln.Result.Failed != 0 || !ln.Result.Correct {
		t.Errorf("%s: attempted %d, failed %d, correct %v", w.name, ln.Result.Attempted, ln.Result.Failed, ln.Result.Correct)
	}
}

// smoke runs a workload at tiny size untraced and traced.
func smoke(t *testing.T, name string, seconds float64, run func(options) (*outcome, error)) {
	t.Helper()
	var w workload
	for _, c := range workloads {
		if c.name == name {
			w = c
		}
	}
	if w.name == "" {
		t.Fatalf("no workload %q", name)
	}
	for _, trace := range []bool{false, true} {
		o := options{seed: 3, seconds: seconds, trace: trace, outDir: t.TempDir()}
		out, err := run(o)
		if err != nil {
			t.Fatal(err)
		}
		wantNames(t, w, o, out)
		if trace {
			if _, err := readTrace(o.tracePath(name)); err != nil {
				t.Errorf("traced run left no readable trace: %v", err)
			}
		}
	}
}

func TestSmokeSimFleet(t *testing.T) {
	smoke(t, "sim-fleet", 0.2, func(o options) (*outcome, error) { return runSimFleet(o, simFleetTiny) })

	// The checks must fail when their expectations are broken: a fleet
	// built from another seed does not share the checkpoint hash, and
	// flows held against each other's sources do not conserve bytes.
	a, b := buildFleet(3, simFleetTiny), buildFleet(4, simFleetTiny)
	defer a.c.Close()
	defer b.c.Close()
	a.c.Run(simFleetTiny.Warmup)
	b.c.Run(simFleetTiny.Warmup)
	out := newOutcome(nil)
	checkHashes(out, []uint64{a.trajectoryHash(), b.trajectoryHash()}, simFleetTiny.Warmup)
	if len(out.problems) != 1 {
		t.Errorf("different-seed fleets passed the same-seed hash check: %v", out.problems)
	}
	out = newOutcome(nil)
	a.sources[0], a.sources[len(a.sources)-1] = a.sources[len(a.sources)-1], a.sources[0]
	a.checkConservation(out)
	if len(out.problems) != 1 || out.failed == 0 {
		t.Errorf("swapped sources passed the conservation check: %v", out.problems)
	}
}

func TestSmokePullSweep(t *testing.T) {
	smoke(t, "pull-sweep", 0.5, func(o options) (*outcome, error) { return runPullSweep(o, pullSweepTiny) })

	// A wrong expected root cause must fail the incident check.
	w, err := buildPullWorld(3, pullSweepTiny, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	r := w.sweepFor(500*time.Millisecond, pullSweepTiny)
	out := newOutcome(nil)
	w.checkIncident(out, r, wantPullRoot)
	if len(out.problems) != 0 {
		t.Fatalf("right expectation failed: %v", out.problems)
	}
	w.checkIncident(out, r, "resource:cpu")
	if len(out.problems) != 1 || out.failed != 1 {
		t.Errorf("wrong expected root cause passed: %v", out.problems)
	}
}

func TestSmokePushIngest(t *testing.T) {
	smoke(t, "push-ingest", 1.2, func(o options) (*outcome, error) { return runPushIngest(o, pushIngestTiny) })

	// A dropped batch, and a fault nobody detected, must each fail the
	// check.
	w, err := buildPushWorld(3, pushIngestTiny)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	d := 600 * time.Millisecond
	r := w.runFor(d, 3)
	w.settle(&r)
	out := newOutcome(nil)
	if w.check(out, &r, d); len(out.problems) != 0 {
		t.Fatalf("right expectation failed: %v", out.problems)
	}
	r.dropped = 1
	out = newOutcome(nil)
	if w.check(out, &r, d); len(out.problems) != 1 || out.failed != 1 {
		t.Errorf("a dropped batch passed: %v", out.problems)
	}
	r.dropped = 0
	r.faults = append(r.faults, &fault{tenant: "t-nobody", element: "pm0/none"})
	out = newOutcome(nil)
	if w.check(out, &r, d); len(out.problems) != 2 || out.failed != 1 { // undetected, and the counts differ
		t.Errorf("an undetected fault passed: %v", out.problems)
	}
}

func TestSmokeDiagnoseReplay(t *testing.T) {
	rec, err := record(3, diagReplayTiny, t.TempDir()) // recorded once: it is most of the cost
	if err != nil {
		t.Fatal(err)
	}
	smoke(t, "diagnose-replay", 0.3, func(o options) (*outcome, error) {
		each := *rec // a run consumes the recording it is given
		return replayRecording(o, diagReplayTiny, &each)
	})

	// A wrong expected root cause must fail the verdict check.
	rec.chains[0].root = "m2/vm-lb/app"
	r := (&replayer{rec: rec}).runFor(rec.fill(), rec.queries(3, diagReplayTiny, 256), 200*time.Millisecond, diagReplayTiny)
	out := newOutcome(nil)
	r.judge(out)
	if len(out.problems) != 1 || r.wrong == 0 {
		t.Errorf("wrong expected root cause passed: %v", out.problems)
	}
}
