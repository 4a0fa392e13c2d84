package experiments

import (
	"testing"
	"time"

	"perfsight/internal/cluster"
	"perfsight/internal/core"
	"perfsight/internal/diagnosis"
	"perfsight/internal/machine"
	"perfsight/internal/middlebox"
	"perfsight/internal/stream"
)

// TestFullServiceChain pushes traffic through a firewall -> NAT -> IPS ->
// cache -> RE -> server chain (every forwarding middlebox kind) and checks
// end-to-end delivery reflects each element's policy: the firewall drops
// 10%, the cache absorbs 30% of what remains, the RE halves the rest.
func TestFullServiceChain(t *testing.T) {
	l := NewLab(time.Millisecond)
	defer l.Close()
	l.DefaultMachine("m0")
	const tid = core.TenantID("t1")
	const C = 1e9

	mk := func(vm core.VMID, app machine.App) {
		l.C.PlaceVM("m0", vm, 1.0, C, app)
		l.C.AssignVM(tid, "m0", vm)
	}

	l.C.AddHost("server", 0)
	outRE := l.C.Connect("re-out", cluster.VMEndpoint("m0", "vm-re"), cluster.HostEndpoint("server"), stream.Config{})
	re := middlebox.NewRedundancyEliminator("m0/vm-re/app", C, 0.5, middlebox.ConnOutput{C: outRE})
	mk("vm-re", re)

	toRE := l.C.Connect("cache-re", cluster.VMEndpoint("m0", "vm-cache"), cluster.VMEndpoint("m0", "vm-re"), stream.Config{})
	cache := middlebox.NewCache("m0/vm-cache/app", C, 0.3, middlebox.ConnOutput{C: toRE})
	mk("vm-cache", cache)

	toCache := l.C.Connect("ips-cache", cluster.VMEndpoint("m0", "vm-ips"), cluster.VMEndpoint("m0", "vm-cache"), stream.Config{})
	ips := middlebox.NewIPS("m0/vm-ips/app", C, middlebox.ConnOutput{C: toCache})
	mk("vm-ips", ips)

	toIPS := l.C.Connect("nat-ips", cluster.VMEndpoint("m0", "vm-nat"), cluster.VMEndpoint("m0", "vm-ips"), stream.Config{})
	nat := middlebox.NewNAT("m0/vm-nat/app", C, middlebox.ConnOutput{C: toIPS})
	mk("vm-nat", nat)

	toNAT := l.C.Connect("fw-nat", cluster.VMEndpoint("m0", "vm-fw"), cluster.VMEndpoint("m0", "vm-nat"), stream.Config{})
	fw := middlebox.NewFirewall("m0/vm-fw/app", C, 0.1, middlebox.ConnOutput{C: toNAT})
	mk("vm-fw", fw)

	client := l.C.AddHost("client", 0)
	in := l.C.Connect("cl-fw", cluster.HostEndpoint("client"), cluster.VMEndpoint("m0", "vm-fw"), stream.Config{})
	client.AddSource(in, 100e6)

	if err := l.BuildAgents(); err != nil {
		t.Fatal(err)
	}
	l.C.AssignStack(tid, "m0")
	l.C.AddChain(tid, "m0/vm-fw/app", "m0/vm-nat/app", "m0/vm-ips/app",
		"m0/vm-cache/app", "m0/vm-re/app")

	l.Run(5 * time.Second)

	ingress := float64(in.DeliveredBytes())
	egress := float64(outRE.DeliveredBytes())
	if ingress == 0 {
		t.Fatal("no ingress")
	}
	// Expected end-to-end ratio: 0.9 (firewall) x 0.7 (cache) x 0.5 (RE).
	want := 0.9 * 0.7 * 0.5
	got := egress / ingress
	if got < want*0.85 || got > want*1.15 {
		t.Fatalf("end-to-end ratio %.3f; want ~%.3f (in=%.0f out=%.0f)", got, want, ingress, egress)
	}

	// The healthy chain must not produce a root-cause verdict that blames a
	// middlebox (ReadBlocked members and the source-underloaded verdict are
	// both fine for an input-limited chain; blocked-on-nothing is not).
	rep, err := diagnosis.LocateRootCause(l.Ctl, tid, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	for id, m := range rep.Metrics {
		if m.State == diagnosis.StateWriteBlocked {
			t.Fatalf("healthy chain shows %s WriteBlocked: %+v", id, m)
		}
	}
}
