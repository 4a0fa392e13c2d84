package core

import (
	"testing"
)

func TestElementIDComponents(t *testing.T) {
	for _, tc := range []struct {
		id      ElementID
		machine MachineID
		vm      VMID
		leaf    string
	}{
		{"m0/pnic", "m0", "", "pnic"},
		{"m0/cpu3/backlog", "m0", "", "backlog"},
		{"m0/vm2/tun", "m0", "vm2", "tun"},
		{"m0/vm2/guest/socket", "m0", "vm2", "socket"},
		{"m0/vm-lb/app", "m0", "vm-lb", "app"},
		{"solo", "solo", "", "solo"},
		{"", "", "", ""},
		{"m0/vm2", "m0", "", "vm2"},       // two parts: middle segment absent
		{"m0/v/x", "m0", "", "x"},         // middle segment too short for "vm"
		{"m0/vswitch/q0", "m0", "", "q0"}, // "v" prefix but not "vm"
		{"/vm1/x", "", "vm1", "x"},
	} {
		if got := tc.id.Machine(); got != tc.machine {
			t.Errorf("%s.Machine() = %s; want %s", tc.id, got, tc.machine)
		}
		if got := tc.id.VM(); got != tc.vm {
			t.Errorf("%s.VM() = %s; want %s", tc.id, got, tc.vm)
		}
		if got := tc.id.Leaf(); got != tc.leaf {
			t.Errorf("%s.Leaf() = %s; want %s", tc.id, got, tc.leaf)
		}
	}
}

// VM() runs on every record of every sweep (topology routing), so it
// must not allocate.
func TestElementIDVMDoesNotAllocate(t *testing.T) {
	ids := []ElementID{"m0/pnic", "m0/vm2/tun", "m0/vm2/guest/socket", "solo"}
	allocs := testing.AllocsPerRun(100, func() {
		for _, id := range ids {
			_ = id.VM()
		}
	})
	if allocs != 0 {
		t.Fatalf("VM() allocs/op = %v; want 0", allocs)
	}
}

func BenchmarkElementIDVM(b *testing.B) {
	ids := []ElementID{"m0/pnic", "m0/vm2/tun", "m0/vm2/guest/socket", "m0/cpu3/backlog"}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = ids[i%len(ids)].VM()
	}
}

func TestElementKindRoundTrip(t *testing.T) {
	for k := KindUnknown; k <= KindMiddlebox; k++ {
		if got := KindFromString(k.String()); got != k {
			t.Errorf("KindFromString(%q) = %v; want %v", k.String(), got, k)
		}
	}
	if KindFromString("nonsense") != KindUnknown {
		t.Error("unknown name should map to KindUnknown")
	}
}

func TestInVirtualizationStack(t *testing.T) {
	stack := []ElementKind{KindPNIC, KindPNICDriver, KindPCPUBacklog, KindNAPIRoutine, KindVSwitch, KindTUN, KindHypervisorIO}
	vmSide := []ElementKind{KindVNIC, KindVNICDriver, KindVCPUBacklog, KindGuestNAPI, KindGuestSocket, KindMiddlebox}
	for _, k := range stack {
		if !k.InVirtualizationStack() {
			t.Errorf("%v should be in the virtualization stack", k)
		}
	}
	for _, k := range vmSide {
		if k.InVirtualizationStack() {
			t.Errorf("%v should not be in the virtualization stack", k)
		}
	}
}

func TestRecordGetSet(t *testing.T) {
	x, y, z := AttrIDFor("x"), AttrIDFor("y"), AttrIDFor("z")
	r := Record{Element: "e"}
	if _, ok := r.Get(x); ok {
		t.Fatal("Get on empty record succeeded")
	}
	r.Set(x, 1)
	r.Set(y, 2)
	r.Set(x, 3) // replace
	if v, _ := r.Get(x); v != 3 {
		t.Fatalf("x = %v; want 3", v)
	}
	if r.GetOr(z, 42) != 42 {
		t.Fatal("GetOr default not applied")
	}
	if r.GetOr(y, 42) != 2 {
		t.Fatal("GetOr ignored present value")
	}
	if len(r.Attrs) != 2 {
		t.Fatalf("Set duplicated attributes: %v", r.Attrs)
	}
}

func TestRecordSubDifferencesCountersOnly(t *testing.T) {
	prev := Record{Timestamp: 1000, Element: "e", Attrs: []Attr{
		{ID: AttrRxBytes, Value: 100},
		{ID: AttrQueueLen, Value: 7},
		{ID: AttrCapacityBps, Value: 1e9},
	}}
	cur := Record{Timestamp: 2000, Element: "e", Attrs: []Attr{
		{ID: AttrRxBytes, Value: 250},
		{ID: AttrQueueLen, Value: 3},
		{ID: AttrCapacityBps, Value: 1e9},
	}}
	d := cur.Sub(prev)
	if v, _ := d.Get(AttrRxBytes); v != 150 {
		t.Fatalf("delta rx_bytes = %v; want 150", v)
	}
	if v, _ := d.Get(AttrQueueLen); v != 3 {
		t.Fatalf("gauge queue_len = %v; want 3 (not differenced)", v)
	}
	if v, _ := d.Get(AttrCapacityBps); v != 1e9 {
		t.Fatalf("static capacity = %v; want 1e9", v)
	}
	if cur.Interval(prev) != 1000 {
		t.Fatalf("interval = %v", cur.Interval(prev))
	}
}

func TestRecordKind(t *testing.T) {
	r := Record{}
	if r.Kind() != KindUnknown {
		t.Fatal("record without kind attr should be unknown")
	}
	r.Set(AttrKind, float64(KindTUN))
	if r.Kind() != KindTUN {
		t.Fatalf("kind = %v; want TUN", r.Kind())
	}
}

func TestRecordString(t *testing.T) {
	r := Record{Timestamp: 5, Element: "eth0", Attrs: []Attr{NamedAttr("rx", 7)}}
	want := "<5, eth0, (rx, 7)>"
	if got := r.String(); got != want {
		t.Fatalf("String() = %q; want %q", got, want)
	}
}

func TestTopologyNetAndAdd(t *testing.T) {
	topo := NewTopology()
	n := topo.Net("t1")
	if n == nil {
		t.Fatal("Net returned nil")
	}
	if topo.Net("t1") != n {
		t.Fatal("Net not idempotent")
	}
	n.Add("m0/pnic", ElementInfo{Machine: "m0", Kind: KindPNIC})
	if info, ok := n.Elements["m0/pnic"]; !ok || info.Machine != "m0" {
		t.Fatal("element not registered")
	}
}

func TestChainSuccessorsPredecessors(t *testing.T) {
	n := &VirtualNet{Elements: map[ElementID]ElementInfo{}}
	n.Chains = append(n.Chains, []ElementID{"a", "b", "c"})
	n.Chains = append(n.Chains, []ElementID{"b", "d"})

	succ := n.Successors("b")
	if len(succ) != 2 || succ[0] != "c" || succ[1] != "d" {
		t.Fatalf("Successors(b) = %v; want [c d]", succ)
	}
	pred := n.Predecessors("b")
	if len(pred) != 1 || pred[0] != "a" {
		t.Fatalf("Predecessors(b) = %v; want [a]", pred)
	}
	if got := n.Successors("c"); len(got) != 0 {
		t.Fatalf("Successors(c) = %v; want empty", got)
	}
	if got := n.Predecessors("a"); len(got) != 0 {
		t.Fatalf("Predecessors(a) = %v; want empty", got)
	}
	if got := n.Successors("missing"); len(got) != 0 {
		t.Fatalf("Successors(missing) = %v", got)
	}
}
