package experiments

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"perfsight/internal/anomaly"
	"perfsight/internal/cluster"
	"perfsight/internal/core"
	"perfsight/internal/history"
	"perfsight/internal/machine"
	"perfsight/internal/middlebox"
	"perfsight/internal/operator"
	"perfsight/internal/stream"
)

// TestOperatorWorkflowEndToEnd exercises the §7.3/§7.4 extensions against
// a live scenario: two tenants on one machine both suffer when a memory
// hog starts; their tickets must blame the same resource on that machine
// (so the incident correlator folds them into one infrastructure
// problem) and the advisor must tell the operator to migrate the
// interference.
func TestOperatorWorkflowEndToEnd(t *testing.T) {
	l := NewLab(time.Millisecond)
	defer l.Close()
	m := l.DefaultMachine("m0")

	tenants := []core.TenantID{"alpha", "beta"}
	for ti, tid := range tenants {
		for i := 0; i < 2; i++ {
			vm := core.VMID(fmt.Sprintf("vm-%s-%d", tid, i))
			sink := middlebox.NewSink(core.ElementID(fmt.Sprintf("m0/%s/app", vm)), 2e9)
			l.C.PlaceVM("m0", vm, 1.0, 2e9, sink)
			hn := fmt.Sprintf("h-%d-%d", ti, i)
			host := l.C.AddHost(hn, 0)
			for j := 0; j < 4; j++ {
				conn := l.C.Connect(flowID(fmt.Sprintf("f-%d-%d-%d", ti, i, j)),
					cluster.HostEndpoint(hn), cluster.VMEndpoint("m0", vm), stream.Config{})
				host.AddSource(conn, 200e6)
			}
			l.C.AssignVM(tid, "m0", vm)
		}
		l.C.AssignStack(tid, "m0")
	}
	if err := l.BuildAgents(); err != nil {
		t.Fatal(err)
	}

	l.Run(2 * time.Second)
	m.AddHog(&machine.Hog{Name: "memhog", Kind: machine.HogMem, MemDemandBps: 26e9, CyclesPerByte: 0.33})

	var tickets []operator.Ticket
	for _, tid := range tenants {
		tk, err := operator.Diagnose(l.Ctl, tid, 3*time.Second)
		if err != nil {
			t.Fatalf("tenant %s: %v", tid, err)
		}
		if tk.Stack == nil || tk.Stack.TotalLoss == 0 {
			t.Fatalf("tenant %s saw no loss", tid)
		}
		tickets = append(tickets, tk)
	}

	// What the incident correlator folds on: both reports put their top
	// drop on the shared machine and infer the same resource.
	for _, tk := range tickets {
		top := tk.Stack.Ranked[0].Element
		if top.Machine() != "m0" || tk.Stack.Inferred != tickets[0].Stack.Inferred {
			t.Fatalf("tenant %s: top drop %s, inferred %s; want m0 and %s",
				tk.Tenant, top, tk.Stack.Inferred, tickets[0].Stack.Inferred)
		}
	}
	c := anomaly.NewCorrelator(anomaly.CorrelatorConfig{})
	for i, tk := range tickets {
		c.Observe(&history.Event{TS: int64(i + 1), Tenant: tk.Tenant, Element: tk.Stack.Ranked[0].Element, Stack: tk.Stack}, 0)
	}
	if in := c.List("", 0); len(in) != 1 || !slices.Equal(in[0].Tenants, tenants) {
		t.Fatalf("correlator made %d incident(s) of the two tickets: %+v", len(in), in)
	}

	recs := operator.Advise(tickets[0])
	found := false
	for _, r := range recs {
		if r.Action == operator.ActionMigrateInterference && r.Owner == operator.OwnerOperator {
			found = true
		}
	}
	if !found {
		t.Fatalf("advisor did not recommend migration: %v", recs)
	}
}

// TestOperatorScaleOutAdvice runs the bottleneck-middlebox path: a chain
// whose proxy saturates must yield a tenant-owned scale-out recommendation.
func TestOperatorScaleOutAdvice(t *testing.T) {
	l := NewLab(time.Millisecond)
	defer l.Close()
	l.DefaultMachine("m0")
	const tid = core.TenantID("t1")
	const C = 100e6

	server := middlebox.NewServer("m0/vm-srv/app", C, 600) // the bottleneck
	l.C.PlaceVM("m0", "vm-srv", 1.0, C, server)
	conn := l.C.Connect("px-srv", cluster.VMEndpoint("m0", "vm-px"), cluster.VMEndpoint("m0", "vm-srv"), stream.Config{})
	proxy := middlebox.NewProxy("m0/vm-px/app", C, middlebox.ConnOutput{C: conn})
	l.C.PlaceVM("m0", "vm-px", 1.0, C, proxy)
	client := l.C.AddHost("client", 0)
	in := l.C.Connect("cl-px", cluster.HostEndpoint("client"), cluster.VMEndpoint("m0", "vm-px"), stream.Config{})
	client.AddSource(in, 0)

	if err := l.BuildAgents(); err != nil {
		t.Fatal(err)
	}
	l.C.AssignStack(tid, "m0")
	l.C.AssignVM(tid, "m0", "vm-px")
	l.C.AssignVM(tid, "m0", "vm-srv")
	l.C.AddChain(tid, "m0/vm-px/app", "m0/vm-srv/app")

	l.Run(3 * time.Second)
	tk, err := operator.Diagnose(l.Ctl, tid, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	recs := operator.Advise(tk)
	found := false
	for _, r := range recs {
		if r.Action == operator.ActionScaleOut && r.Target == "m0/vm-srv/app" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no scale-out advice for the saturated server: %v (chain: %+v)", recs, tk.Chain)
	}
}
