package anomaly

import (
	"slices"
	"testing"
	"time"

	"perfsight/internal/core"
	"perfsight/internal/diagnosis"
	"perfsight/internal/history"
)

const sec = int64(time.Second)

// elemEvent is a diagnosis event with no verdict: it folds on its element.
func elemEvent(elem core.ElementID, tid core.TenantID, ts, seq int64) *history.Event {
	return &history.Event{TS: ts, Tenant: tid, Element: elem, Seq: seq, Summary: "s"}
}

// stackEvent is an event carrying an Algorithm 1 verdict whose ranking
// lists ranked, most loss first.
func stackEvent(tid core.TenantID, ts int64, scope diagnosis.Scope, res diagnosis.Resource, vm core.VMID, ranked ...core.ElementID) *history.Event {
	rep := &diagnosis.ContentionReport{Scope: scope, Inferred: res, BottleneckVM: vm, TotalLoss: 100}
	for i, e := range ranked {
		rep.Ranked = append(rep.Ranked, diagnosis.ElementLoss{Element: e, Loss: float64(50 - i)})
	}
	return &history.Event{TS: ts, Tenant: tid, Element: ranked[0], Stack: rep, Summary: rep.String()}
}

// chainEvent is an event carrying an Algorithm 2 verdict.
func chainEvent(tid core.TenantID, ts int64, roots ...core.ElementID) *history.Event {
	return &history.Event{TS: ts, Tenant: tid, Element: roots[0],
		Chain: &diagnosis.RootCauseReport{RootCauses: roots}, Summary: "chain"}
}

func TestCorrelatorFoldsSameRootCause(t *testing.T) {
	c := NewCorrelator(CorrelatorConfig{Window: 30 * time.Second, ResolveAfter: 10 * time.Second})
	ev := stackEvent("t1", 1*sec, diagnosis.ScopeContention, diagnosis.ResourceMemoryBandwidth, "", "m0/vm0/tun")
	ev.Seq, ev.Summary, ev.TraceID = 11, "first", 101
	id1, opened := c.Observe(ev, 2*sec)
	if !opened || id1 == 0 {
		t.Fatalf("first event: id=%d opened=%v", id1, opened)
	}
	ev = stackEvent("t1", 5*sec, diagnosis.ScopeContention, diagnosis.ResourceMemoryBandwidth, "", "m0/vm1/tun")
	ev.Seq, ev.Summary, ev.TraceID = 12, "second", 101
	id2, opened := c.Observe(ev, 0)
	if opened || id2 != id1 {
		t.Fatalf("second event opened a new incident: id=%d opened=%v", id2, opened)
	}
	// A different root cause is its own incident.
	id3, opened := c.Observe(chainEvent("t2", 6*sec, "m0/vm-px/app"), 0)
	if !opened || id3 == id1 {
		t.Fatalf("different root cause folded: id=%d opened=%v", id3, opened)
	}
	if c.OpenCount() != 2 {
		t.Fatalf("OpenCount = %d, want 2", c.OpenCount())
	}

	in, ok := c.Get(id1)
	if !ok {
		t.Fatal("Get lost the incident")
	}
	if in.RootCause != "resource:memory-bandwidth" || !slices.Equal(in.Machines, []core.MachineID{"m0"}) {
		t.Fatalf("root cause %q on %v, want resource:memory-bandwidth on [m0]", in.RootCause, in.Machines)
	}
	if in.State != StateOpen || in.FirstSeen != 1*sec || in.LastSeen != 5*sec {
		t.Fatalf("timeline = %+v", in)
	}
	if in.EventCount != 2 || len(in.EventSeqs) != 2 || in.EventSeqs[0] != 11 || in.EventSeqs[1] != 12 {
		t.Fatalf("event seqs = %+v", in)
	}
	if len(in.Tenants) != 1 || in.Tenants[0] != "t1" {
		t.Fatalf("tenants = %v", in.Tenants)
	}
	if len(in.Elements) != 2 {
		t.Fatalf("elements = %v", in.Elements)
	}
	if in.Summary != "second" {
		t.Fatalf("summary = %q, want latest event's", in.Summary)
	}
	if in.DetectionNS != 2*sec {
		t.Fatalf("DetectionNS = %d, want the opening event's", in.DetectionNS)
	}
	// Both events referenced trace 101; the incident keeps it once.
	if len(in.TraceIDs) != 1 || in.TraceIDs[0] != 101 {
		t.Fatalf("trace ids = %v, want [101]", in.TraceIDs)
	}
}

func TestCorrelatorResolvesAfterQuiet(t *testing.T) {
	c := NewCorrelator(CorrelatorConfig{Window: 30 * time.Second, ResolveAfter: 10 * time.Second})
	id, _ := c.Observe(elemEvent("k", "t1", 1*sec, 1), 0)
	if n := c.Tick(5 * sec); n != 0 {
		t.Fatalf("Tick inside quiet period resolved %d", n)
	}
	if n := c.Tick(11 * sec); n != 1 {
		t.Fatalf("Tick past ResolveAfter resolved %d, want 1", n)
	}
	in, ok := c.Get(id)
	if !ok || in.State != StateResolved || in.ResolvedAt != 11*sec {
		t.Fatalf("resolved incident = %+v ok=%v", in, ok)
	}
	if c.OpenCount() != 0 {
		t.Fatalf("OpenCount = %d after resolve", c.OpenCount())
	}
	// A recurrence after resolution is a NEW incident.
	id2, opened := c.Observe(elemEvent("k", "t1", 20*sec, 2), 0)
	if !opened || id2 == id {
		t.Fatalf("recurrence reopened history: id=%d opened=%v", id2, opened)
	}
}

func TestCorrelatorLapsedWindowOpensFresh(t *testing.T) {
	c := NewCorrelator(CorrelatorConfig{Window: 10 * time.Second, ResolveAfter: 5 * time.Second})
	id1, _ := c.Observe(elemEvent("k", "t1", 1*sec, 1), 0)
	// No Tick ran (e.g. sweeps stalled), but the next same-key event is
	// far outside the window: the stale incident resolves and a fresh one
	// opens rather than stretching one incident across the gap.
	id2, opened := c.Observe(elemEvent("k", "t1", 60*sec, 2), 0)
	if !opened || id2 == id1 {
		t.Fatalf("late burst joined the lapsed incident: id=%d opened=%v", id2, opened)
	}
	in, _ := c.Get(id1)
	if in.State != StateResolved {
		t.Fatalf("lapsed incident state = %s", in.State)
	}
}

func TestCorrelatorListAndEviction(t *testing.T) {
	c := NewCorrelator(CorrelatorConfig{Window: 10 * time.Second, ResolveAfter: time.Second, MaxResolved: 2})
	for i := int64(0); i < 4; i++ {
		c.Observe(elemEvent("k", "t1", i*20*sec, i+1), 0)
		c.Tick(i*20*sec + 2*sec)
	}
	c.Observe(elemEvent("open-one", "t1", 100*sec, 9), 0)

	all := c.List("", 0)
	if len(all) != 3 { // 1 open + 2 retained resolved (2 evicted)
		t.Fatalf("List(all) = %d incidents, want 3", len(all))
	}
	if all[0].ID <= all[1].ID {
		t.Fatalf("List not newest-first: %v then %v", all[0].ID, all[1].ID)
	}
	if open := c.List(StateOpen, 0); len(open) != 1 || open[0].RootCause != "open-one" {
		t.Fatalf("List(open) = %+v", open)
	}
	if res := c.List(StateResolved, 0); len(res) != 2 {
		t.Fatalf("List(resolved) = %d, want 2 (MaxResolved)", len(res))
	}
	if lim := c.List("", 1); len(lim) != 1 {
		t.Fatalf("List(limit 1) = %d", len(lim))
	}
	// Evicted incidents are gone.
	if _, ok := c.Get(1); ok {
		t.Fatal("evicted incident still retrievable")
	}
}

func TestCorrelatorSnapshotsAreCopies(t *testing.T) {
	c := NewCorrelator(CorrelatorConfig{})
	id, _ := c.Observe(elemEvent("e1", "t1", 1*sec, 1), 0)
	in, _ := c.Get(id)
	in.Elements[0] = "mutated"
	in.Machines[0] = "mutated"
	in.Summary = "mutated"
	again, _ := c.Get(id)
	if again.Elements[0] != "e1" || again.Machines[0] != "e1" || again.Summary != "s" {
		t.Fatalf("snapshot mutation leaked into correlator: %+v", again)
	}
}

// One resource running short on two machines is two problems: the
// tenants' reports must not fold just because they name the same
// resource.
func TestCorrelatorSplitsDisjointMachines(t *testing.T) {
	c := NewCorrelator(CorrelatorConfig{})
	idA, _ := c.Observe(stackEvent("tA", 1*sec, diagnosis.ScopeBottleneck, diagnosis.ResourceVMBottleneck, "vm0", "m0/vm0/tun"), 0)
	idB, opened := c.Observe(stackEvent("tB", 2*sec, diagnosis.ScopeBottleneck, diagnosis.ResourceVMBottleneck, "vm3", "m5/vm3/tun"), 0)
	if !opened || idB == idA {
		t.Fatalf("bottlenecks on m0 and m5 folded into incident %d", idA)
	}
	for id, want := range map[int64]core.MachineID{idA: "m0", idB: "m5"} {
		in, _ := c.Get(id)
		if in.RootCause != "resource:vm-bottleneck" || !slices.Equal(in.Machines, []core.MachineID{want}) || len(in.Tenants) != 1 {
			t.Fatalf("incident %d = %q on %v, tenants %v; want resource:vm-bottleneck on [%s], one tenant",
				id, in.RootCause, in.Machines, in.Tenants, want)
		}
	}
	// A bottleneck is confined to one VM: another VM on m0 is its own
	// problem.
	if id, opened := c.Observe(stackEvent("tC", 3*sec, diagnosis.ScopeBottleneck, diagnosis.ResourceVMBottleneck, "vm1", "m0/vm1/tun"), 0); !opened || id == idA {
		t.Fatalf("bottleneck of m0/vm1 folded into m0/vm0's incident %d", idA)
	}
}

// Two tenants whose stack reports put their top drop on one machine,
// with the same inferred resource, are one problem in shared
// infrastructure.
func TestCorrelatorFoldsTenantsSharingAMachine(t *testing.T) {
	c := NewCorrelator(CorrelatorConfig{})
	id1, _ := c.Observe(stackEvent("alpha", 1*sec, diagnosis.ScopeContention, diagnosis.ResourceMemoryBandwidth, "", "m0/vm1/tun", "m3/vm2/tun"), 0)
	id2, opened := c.Observe(stackEvent("beta", 2*sec, diagnosis.ScopeContention, diagnosis.ResourceMemoryBandwidth, "", "m0/vm7/tun"), 0)
	if opened || id2 != id1 {
		t.Fatalf("same resource on m0 opened incident %d beside %d", id2, id1)
	}
	in, _ := c.Get(id1)
	if !slices.Equal(in.Tenants, []core.TenantID{"alpha", "beta"}) || !slices.Equal(in.Machines, []core.MachineID{"m0"}) {
		t.Fatalf("incident tenants %v on %v, want [alpha beta] on [m0]", in.Tenants, in.Machines)
	}
	// A different resource on the same machine is a different problem.
	if _, opened := c.Observe(stackEvent("gamma", 3*sec, diagnosis.ScopeContention, diagnosis.ResourcePCPUBacklog, "", "m0/cpu0/backlog"), 0); !opened {
		t.Fatal("pCPU backlog on m0 folded into the memory-bandwidth incident")
	}
}

// Chain verdicts fold on the whole root-cause set: the same root element
// named by two tenants is one incident, but {a, b} is not {a}.
func TestCorrelatorChainFoldsOnRootCauseSet(t *testing.T) {
	c := NewCorrelator(CorrelatorConfig{})
	id1, _ := c.Observe(chainEvent("t1", 1*sec, "m0/vm-lb/app"), 0)
	id2, opened := c.Observe(chainEvent("t2", 2*sec, "m0/vm-lb/app"), 0)
	if opened || id2 != id1 {
		t.Fatalf("same chain root opened incident %d beside %d", id2, id1)
	}
	if in, _ := c.Get(id1); !slices.Equal(in.Tenants, []core.TenantID{"t1", "t2"}) {
		t.Fatalf("shared chain root tenants = %v", in.Tenants)
	}
	idAB, opened := c.Observe(chainEvent("t1", 3*sec, "m0/vm-lb/app", "m4/vm-ids/app"), 0)
	if !opened || idAB == id1 {
		t.Fatalf("root-cause set {a, b} folded with {a}: incident %d", idAB)
	}
	// The set is unordered.
	if id, opened := c.Observe(chainEvent("t1", 4*sec, "m4/vm-ids/app", "m0/vm-lb/app"), 0); opened || id != idAB {
		t.Fatalf("{b, a} opened incident %d, want %d", id, idAB)
	}
	in, _ := c.Get(idAB)
	if in.RootCause != "m0/vm-lb/app" || !slices.Equal(in.Machines, []core.MachineID{"m0", "m4"}) {
		t.Fatalf("chain incident = %q on %v", in.RootCause, in.Machines)
	}
}
