package operator

import (
	"strings"
	"testing"

	"perfsight/internal/core"
	"perfsight/internal/diagnosis"
)

func stackReport(scope diagnosis.Scope, res diagnosis.Resource, vm core.VMID, elems ...core.ElementID) *diagnosis.ContentionReport {
	rep := &diagnosis.ContentionReport{
		Scope:        scope,
		Inferred:     res,
		BottleneckVM: vm,
		TotalLoss:    100,
	}
	for _, e := range elems {
		rep.Ranked = append(rep.Ranked, diagnosis.ElementLoss{Element: e, Loss: 50})
	}
	return rep
}

func TestAdviseBottleneckResizesVM(t *testing.T) {
	tkt := Ticket{
		Tenant: "t1",
		Stack:  stackReport(diagnosis.ScopeBottleneck, diagnosis.ResourceVMBottleneck, "vm1", "m0/vm1/tun"),
	}
	recs := Advise(tkt)
	if len(recs) != 1 || recs[0].Action != ActionResizeVM || recs[0].Owner != OwnerTenant {
		t.Fatalf("recs: %v", recs)
	}
}

func TestAdviseContentionMigrates(t *testing.T) {
	tkt := Ticket{
		Tenant: "t1",
		Stack:  stackReport(diagnosis.ScopeContention, diagnosis.ResourceMemoryBandwidth, "", "m0/vm0/tun", "m0/vm1/tun"),
	}
	recs := Advise(tkt)
	if recs[0].Action != ActionMigrateInterference || recs[0].Owner != OwnerOperator {
		t.Fatalf("recs: %v", recs)
	}
}

func TestAdviseNICShortageAddsCapacity(t *testing.T) {
	tkt := Ticket{
		Tenant: "t1",
		Stack:  stackReport(diagnosis.ScopeContention, diagnosis.ResourceIncomingBandwidth, "", "m0/pnic"),
	}
	recs := Advise(tkt)
	if recs[0].Action != ActionAddCapacity {
		t.Fatalf("recs: %v", recs)
	}
}

func TestAdviseChainRootCauseScalesOut(t *testing.T) {
	tkt := Ticket{
		Tenant: "t1",
		Chain: &diagnosis.RootCauseReport{
			RootCauses: []core.ElementID{"m0/vm-lb/app"},
			Overloaded: map[core.ElementID]bool{"m0/vm-lb/app": true},
			Metrics: map[core.ElementID]diagnosis.MBMetrics{
				"m0/vm-lb/app": {InRateBps: 200e6, OutRateBps: 30e6},
				// The upstream proxy is visibly stalled on it.
				"m0/vm-up/app": {State: diagnosis.StateWriteBlocked},
			},
		},
	}
	recs := Advise(tkt)
	if len(recs) != 1 || recs[0].Action != ActionScaleOut || recs[0].Target != "m0/vm-lb/app" {
		t.Fatalf("recs: %v", recs)
	}
	if !strings.Contains(recs[0].String(), "scale-out") {
		t.Fatalf("rendering: %s", recs[0])
	}
}

func TestAdviseUnderloadedSource(t *testing.T) {
	tkt := Ticket{
		Tenant: "t1",
		Chain:  &diagnosis.RootCauseReport{SourceUnderloaded: true},
	}
	recs := Advise(tkt)
	if recs[0].Action != ActionThrottleSource || recs[0].Owner != OwnerNobody {
		t.Fatalf("recs: %v", recs)
	}
}

func TestAdviseHealthyTicket(t *testing.T) {
	recs := Advise(Ticket{Tenant: "t1", Stack: &diagnosis.ContentionReport{}})
	if len(recs) != 1 || recs[0].Action != ActionNone {
		t.Fatalf("recs: %v", recs)
	}
}

func TestActionAndOwnerNames(t *testing.T) {
	for a := ActionNone; a <= ActionThrottleSource; a++ {
		if strings.HasPrefix(a.String(), "action(") {
			t.Fatalf("unnamed action %d", int(a))
		}
	}
	if OwnerTenant.String() != "tenant" || OwnerOperator.String() != "operator" {
		t.Fatal("owner names")
	}
}
