package dataplane

import (
	"sync"
	"testing"
	"time"

	"perfsight/internal/core"
)

// recordingFB captures flow feedback for assertions.
type recordingFB struct {
	mu        sync.Mutex
	delivered int64
	dropped   int64
	where     core.ElementID
}

func (r *recordingFB) Delivered(p int, b int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.delivered += b
}

func (r *recordingFB) Dropped(p int, b int64, where core.ElementID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dropped += b
	r.where = where
}

func TestPNICAdmissionByLineRate(t *testing.T) {
	p := NewPNIC("m0/pnic", 8e6, 8e6, 10000, 1000) // 1 MB/s each way
	// Offer 2 MB in a 1 s tick against a 1 MB/s line: half drops.
	fb := &recordingFB{}
	p.OfferRx([]Batch{{Flow: "f", Packets: 2000, Bytes: 2e6, FB: fb}}, time.Second)
	if got := p.ES.Rx.Bytes.Load(); got != 1e6 {
		t.Fatalf("admitted %d bytes; want 1e6", got)
	}
	if got := p.ES.Drop.Bytes.Load(); got != 1e6 {
		t.Fatalf("dropped %d bytes; want 1e6", got)
	}
	if fb.dropped != 1e6 || fb.where != "m0/pnic" {
		t.Fatalf("flow feedback: %+v", fb)
	}
}

func TestPNICAdmissionByRingSpace(t *testing.T) {
	p := NewPNIC("m0/pnic", 8e9, 8e9, 10, 1000)
	p.OfferRx([]Batch{{Flow: "f", Packets: 25, Bytes: 2500}}, time.Second)
	if p.RxRingLen() != 10 {
		t.Fatalf("ring holds %d; want 10", p.RxRingLen())
	}
	if p.ES.Drop.Packets.Load() != 15 {
		t.Fatalf("dropped %d; want 15", p.ES.Drop.Packets.Load())
	}
}

func TestPNICTxDrainAtLineRate(t *testing.T) {
	p := NewPNIC("m0/pnic", 8e6, 8e6, 100, 1000)
	p.EnqueueTx(Batch{Flow: "f", Packets: 2000, Bytes: 2e6})
	out := p.DrainTx(time.Second)
	if SumBytes(out) != 1e6 {
		t.Fatalf("drained %d bytes; want 1e6 (line rate)", SumBytes(out))
	}
	if p.TxSpace() <= 0 {
		t.Fatal("tx space not freed")
	}
}

func TestDriverMovesRingToBacklog(t *testing.T) {
	p := NewPNIC("m0/pnic", 8e9, 8e9, 1000, 1000)
	d := NewPNICDriver("m0/pnic_driver", 1000, 0)
	set := NewBacklogSet("m0", 1, 300)
	p.OfferRx([]Batch{{Flow: "f", Packets: 100, Bytes: 10000}}, time.Second)
	cpu := cycles(1e6)
	bus := bus(1 << 30)
	d.Move(p, set, cpu, bus)
	if set.TotalLen() != 100 {
		t.Fatalf("backlog holds %d; want 100", set.TotalLen())
	}
	if p.RxRingLen() != 0 {
		t.Fatal("ring not drained")
	}
	if cpu.Spent() != 100*1000 {
		t.Fatalf("cpu spent %v; want 1e5", cpu.Spent())
	}
}

func TestDriverBudgetLimits(t *testing.T) {
	p := NewPNIC("m0/pnic", 8e9, 8e9, 1000, 1000)
	d := NewPNICDriver("m0/pnic_driver", 1000, 0)
	set := NewBacklogSet("m0", 1, 300)
	p.OfferRx([]Batch{{Flow: "f", Packets: 100, Bytes: 10000}}, time.Second)
	d.Move(p, set, cycles(40*1000), bus(1<<30))
	if set.TotalLen() != 40 {
		t.Fatalf("cpu-limited move got %d; want 40", set.TotalLen())
	}
	if p.RxRingLen() != 60 {
		t.Fatalf("ring keeps %d; want 60", p.RxRingLen())
	}
}

func TestDriverAllocFailDropsAtDriver(t *testing.T) {
	p := NewPNIC("m0/pnic", 8e9, 8e9, 1000, 1000)
	d := NewPNICDriver("m0/pnic_driver", 1000, 0)
	d.AllocFailRate = 0.5
	set := NewBacklogSet("m0", 1, 10000)
	p.OfferRx([]Batch{{Flow: "f", Packets: 100, Bytes: 10000}}, time.Second)
	d.Move(p, set, cycles(1e9), bus(1<<30))
	if drops := d.ES.Drop.Packets.Load(); drops != 50 {
		t.Fatalf("driver dropped %d; want 50", drops)
	}
	if set.TotalLen() != 50 {
		t.Fatalf("backlog got %d; want 50", set.TotalLen())
	}
}

func TestBacklogOverflowDrops(t *testing.T) {
	q := NewBacklogQueue("m0/cpu0/backlog", 300)
	q.Enqueue(Batch{Flow: "f", Packets: 500, Bytes: 50000})
	if q.Len() != 300 {
		t.Fatalf("queue %d; want 300", q.Len())
	}
	if q.ES.Drop.Packets.Load() != 200 {
		t.Fatalf("drops %d; want 200", q.ES.Drop.Packets.Load())
	}
}

func TestBacklogSetHashStable(t *testing.T) {
	s := NewBacklogSet("m0", 4, 300)
	i1 := s.index("flow-a")
	for k := 0; k < 10; k++ {
		if s.index("flow-a") != i1 {
			t.Fatal("hash not stable")
		}
	}
	if len(s.Queues()) != 4 {
		t.Fatalf("queues = %d", len(s.Queues()))
	}
}

func TestBacklogSaturationAdmissionIsFair(t *testing.T) {
	q := NewBacklogQueue("m0/cpu0/backlog", 300)
	// Tick 1: flood overflows, small flow arrives after the drain hole.
	q.BeginTick()
	q.Enqueue(Batch{Flow: "flood", Packets: 700, Bytes: 70000})
	q.q.Dequeue(300, -1) // NAPI drains what it can
	q.CountTx(Batch{Packets: 300, Bytes: 30000})
	q.Enqueue(Batch{Flow: "small", Packets: 50, Bytes: 5000})

	// Tick 2: the queue is saturated; admission must hit both flows.
	q.BeginTick()
	dropsBefore := q.ES.Drop.Packets.Load()
	q.Enqueue(Batch{Flow: "flood", Packets: 700, Bytes: 70000})
	q.q.Dequeue(300, -1)
	q.CountTx(Batch{Packets: 300, Bytes: 30000})
	smallBefore := q.ES.Drop.Packets.Load()
	q.Enqueue(Batch{Flow: "small", Packets: 50, Bytes: 5000})
	smallDropped := q.ES.Drop.Packets.Load() - smallBefore
	if smallDropped == 0 {
		t.Fatal("small flow fully protected under saturation; want proportional loss")
	}
	if q.ES.Drop.Packets.Load() == dropsBefore {
		t.Fatal("no drops under sustained overflow")
	}
}

func TestVSwitchRules(t *testing.T) {
	v := NewVSwitch("m0/vswitch")
	v.InstallToVM("f1", "vm0")
	v.InstallToPNIC("f2")
	if r := v.Lookup("f1"); r == nil || r.Action != ActionToVM || r.VM != "vm0" {
		t.Fatalf("f1 rule: %+v", r)
	}
	if r := v.Lookup("f2"); r == nil || r.Action != ActionToPNIC {
		t.Fatalf("f2 rule: %+v", r)
	}
	if v.Lookup("missing") != nil {
		t.Fatal("phantom rule")
	}
	v.Remove("f1")
	if v.Lookup("f1") != nil {
		t.Fatal("rule not removed")
	}
	rules := v.Rules()
	if len(rules) != 1 || rules[0].Flow != "f2" {
		t.Fatalf("rules: %v", rules)
	}
}

func TestVSwitchPerRuleCounters(t *testing.T) {
	v := NewVSwitch("m0/vswitch")
	v.InstallToVM("f1", "vm0")
	r := v.Lookup("f1")
	v.Count(r, Batch{Packets: 3, Bytes: 300})
	if r.Packets.Load() != 3 || r.Bytes.Load() != 300 {
		t.Fatalf("rule counters: %d/%d", r.Packets.Load(), r.Bytes.Load())
	}
	if v.ES.Rx.Packets.Load() != 3 {
		t.Fatal("switch element counters not updated")
	}
}

func TestNAPIRoutesToTUNAndDropsUnmatched(t *testing.T) {
	set := NewBacklogSet("m0", 1, 300)
	v := NewVSwitch("m0/vswitch")
	nic := NewPNIC("m0/pnic", 8e9, 8e9, 1000, 1000)
	napi := NewNAPI("m0/napi", 1000, 0)
	tun := NewTUN("m0/vm0/tun", "vm0", 500)
	v.InstallToVM("good", "vm0")

	set.Enqueue(Batch{Flow: "good", Packets: 10, Bytes: 1000})
	set.Enqueue(Batch{Flow: "bad", Packets: 5, Bytes: 500})
	napi.Run(set, v, nic, map[core.VMID]*TUN{"vm0": tun}, cycles(1e9), bus(1<<30))

	if tun.Len() != 10 {
		t.Fatalf("tun got %d; want 10", tun.Len())
	}
	if v.ES.Drop.Packets.Load() != 5 {
		t.Fatalf("unmatched drops %d; want 5", v.ES.Drop.Packets.Load())
	}
}

func TestNAPIHOLBlocksOnFullTxQueue(t *testing.T) {
	set := NewBacklogSet("m0", 1, 300)
	v := NewVSwitch("m0/vswitch")
	nic := NewPNIC("m0/pnic", 8e9, 8e9, 1000, 10) // tiny tx queue
	napi := NewNAPI("m0/napi", 1000, 0)
	v.InstallToPNIC("wire")

	set.Enqueue(Batch{Flow: "wire", Packets: 100, Bytes: 10000})
	napi.Run(set, v, nic, nil, cycles(1e9), bus(1<<30))
	if set.TotalLen() != 90 {
		t.Fatalf("backlog should keep the HOL-blocked remainder: %d", set.TotalLen())
	}
	if nic.ES.Drop.Packets.Load() != 0 {
		t.Fatal("HOL-block must not drop at the NIC")
	}
}

func TestTUNDropsOnOverflowWithFeedback(t *testing.T) {
	tun := NewTUN("m0/vm0/tun", "vm0", 10)
	fb := &recordingFB{}
	tun.Write(Batch{Flow: "f", Packets: 25, Bytes: 2500, FB: fb})
	if tun.Len() != 10 {
		t.Fatalf("tun holds %d", tun.Len())
	}
	if tun.ES.Drop.Packets.Load() != 15 {
		t.Fatalf("drops %d; want 15", tun.ES.Drop.Packets.Load())
	}
	if fb.where != "m0/vm0/tun" {
		t.Fatalf("feedback location %s", fb.where)
	}
	got := tun.Read(5, -1)
	if SumPackets(got) != 5 || tun.Len() != 5 {
		t.Fatal("read accounting wrong")
	}
}

func TestHypervisorIORespectsVNICRate(t *testing.T) {
	tun := NewTUN("m0/vm0/tun", "vm0", 10000)
	vnic := NewVNIC("m0/vm0/guest/vnic", "vm0", 8e6, 100000) // 1 MB/s
	h := NewHypervisorIO("m0/vm0/qemu", "vm0", 100, 0)
	tun.Write(Batch{Flow: "f", Packets: 5000, Bytes: 5e6})
	h.MoveRx(tun, vnic, cycles(1e12), bus(1<<40), time.Second)
	if got := vnic.RxRingBytes(); got != 1e6 {
		t.Fatalf("moved %d bytes; want 1e6 (vNIC line rate)", got)
	}
}

func TestHypervisorIOBackpressuresOnFullRing(t *testing.T) {
	tun := NewTUN("m0/vm0/tun", "vm0", 10000)
	vnic := NewVNIC("m0/vm0/guest/vnic", "vm0", 8e9, 10)
	h := NewHypervisorIO("m0/vm0/qemu", "vm0", 100, 0)
	tun.Write(Batch{Flow: "f", Packets: 100, Bytes: 10000})
	h.MoveRx(tun, vnic, cycles(1e12), bus(1<<40), time.Second)
	if vnic.RxRingLen() != 10 {
		t.Fatalf("ring %d; want 10", vnic.RxRingLen())
	}
	if tun.Len() != 90 {
		t.Fatalf("tun should keep the rest: %d", tun.Len())
	}
	if vnic.ES.Drop.Packets.Load() != 0 {
		t.Fatal("backpressure must not drop")
	}
}

func TestGuestSocketDeliveryAndWindow(t *testing.T) {
	s := NewGuestSocket("m0/vm0/guest/socket", 1000, 500)
	fb := &recordingFB{}
	s.DeliverRx(Batch{Flow: "f", Packets: 2, Bytes: 800, FB: fb})
	if fb.delivered != 800 {
		t.Fatalf("delivered feedback %d", fb.delivered)
	}
	if s.RxFree() != 200 {
		t.Fatalf("rx free %d; want 200", s.RxFree())
	}
	s.DeliverRx(Batch{Flow: "f", Packets: 2, Bytes: 800, FB: fb})
	if fb.dropped == 0 {
		t.Fatal("overflow should notify drop")
	}
	got := s.Read(500)
	if SumBytes(got) == 0 || s.RxAvailable() >= 1000 {
		t.Fatal("read did not consume")
	}
}

func TestGuestSocketTxBounded(t *testing.T) {
	s := NewGuestSocket("m0/vm0/guest/socket", 1000, 300)
	if acc := s.Write(Batch{Flow: "f", Packets: 5, Bytes: 500}); acc != 300 {
		t.Fatalf("accepted %d; want 300", acc)
	}
	if s.TxFree() != 0 || s.TxQueued() != 300 {
		t.Fatalf("tx state free=%d queued=%d", s.TxFree(), s.TxQueued())
	}
	got := s.DequeueTx(-1, 100)
	if SumBytes(got) == 0 {
		t.Fatal("dequeue tx empty")
	}
}

func TestStackAssemblyAndSnapshotIdentity(t *testing.T) {
	cfg := DefaultStackConfig("m0", 4)
	s := NewStack(cfg)
	s.AddVM("vm0", 1e9)
	els := s.AllElements()
	seen := map[core.ElementID]bool{}
	for _, e := range els {
		if seen[e.ID()] {
			t.Fatalf("duplicate element %s", e.ID())
		}
		seen[e.ID()] = true
		rec := e.Snapshot(7)
		if rec.Element != e.ID() || rec.Timestamp != 7 {
			t.Fatalf("snapshot identity wrong for %s", e.ID())
		}
		if rec.Kind() != e.Kind() {
			t.Fatalf("%s kind attr %v != %v", e.ID(), rec.Kind(), e.Kind())
		}
	}
	if !seen["m0/vm0/tun"] || !seen["m0/pnic"] || !seen["m0/cpu3/backlog"] {
		t.Fatalf("missing expected elements: %v", seen)
	}
	s.RemoveVM("vm0")
	if len(s.AllElements()) != len(s.Elements()) {
		t.Fatal("VM elements not removed")
	}
}

func TestStackDuplicateVMPanics(t *testing.T) {
	s := NewStack(DefaultStackConfig("m0", 2))
	s.AddVM("vm0", 1e9)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate AddVM did not panic")
		}
	}()
	s.AddVM("vm0", 1e9)
}

func TestCycleBudget(t *testing.T) {
	b := cycles(1000)
	if b.PacketsFor(100) != 10 {
		t.Fatalf("PacketsFor = %d", b.PacketsFor(100))
	}
	b.SpendPackets(5, 100)
	if b.Remaining() != 500 || b.Spent() != 500 {
		t.Fatalf("remaining %v spent %v", b.Remaining(), b.Spent())
	}
	if b.BytesFor(1) != 500 {
		t.Fatalf("BytesFor = %d", b.BytesFor(1))
	}
	b.SpendCycles(1e6)
	if !b.Exhausted() || b.Remaining() != 0 {
		t.Fatal("overdrawn budget not exhausted")
	}
	var nilB *CycleBudget
	if nilB.PacketsFor(1) <= 0 || nilB.Spent() != 0 {
		t.Fatal("nil budget should be unlimited and inert")
	}
}

func TestMembusBudgetSharedPool(t *testing.T) {
	var pool, a, b MembusBudget
	pool.Reset(1000, nil)
	a.Reset(800, &pool)
	b.Reset(800, &pool)
	if a.WireBytesFor(1) != 800 {
		t.Fatalf("child sees %d", a.WireBytesFor(1))
	}
	a.SpendWireBytes(700, 1)
	// Pool has 300 left; b's own cap is 800 but pool limits it.
	if got := b.WireBytesFor(1); got != 300 {
		t.Fatalf("second child sees %d; want 300 (pool-limited)", got)
	}
	b.SpendWireBytes(300, 1)
	if pool.Remaining() != 0 {
		t.Fatalf("pool remaining %d", pool.Remaining())
	}
	if a.WireBytesFor(1) != 0 {
		t.Fatal("exhausted pool still grants")
	}
}

func TestMembusBudgetFactorConversion(t *testing.T) {
	m := bus(180)
	if m.WireBytesFor(18) != 10 {
		t.Fatalf("WireBytesFor(18) = %d; want 10", m.WireBytesFor(18))
	}
	m.SpendWireBytes(10, 18)
	if m.Remaining() != 0 {
		t.Fatalf("remaining %d", m.Remaining())
	}
}
