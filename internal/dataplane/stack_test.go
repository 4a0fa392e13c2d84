package dataplane

import (
	"testing"
	"time"

	"perfsight/internal/core"
)

// buildStack returns a small stack with one VM and a route to it.
func buildStack(t *testing.T) (*Stack, *VMStack) {
	t.Helper()
	cfg := DefaultStackConfig("m0", 2)
	s := NewStack(cfg)
	vm := s.AddVM("vm0", 1e9)
	s.VSwitch.InstallToVM("f", "vm0")
	return s, vm
}

// cycles and bus build a budget the way Machine.Tick does: a value, Reset.
func cycles(n float64) *CycleBudget {
	var b CycleBudget
	b.Reset(n)
	return &b
}

func bus(n int64) *MembusBudget {
	var b MembusBudget
	b.Reset(n, nil)
	return &b
}

func bigCPU() *CycleBudget     { return cycles(1e12) }
func bigBus() *MembusBudget    { return bus(1 << 40) }
func rxBatch(pkts int) []Batch { return []Batch{{Flow: "f", Packets: pkts, Bytes: int64(pkts) * 1448}} }

// TestRxPipelinePhases walks one packet burst through every receive stage
// explicitly: pNIC ring -> backlog -> vswitch -> TUN -> vNIC -> guest
// backlog -> guest socket.
func TestRxPipelinePhases(t *testing.T) {
	s, vm := buildStack(t)

	s.OfferRx(rxBatch(50), time.Millisecond)
	if s.PNic.RxRingLen() != 50 {
		t.Fatalf("ring: %d", s.PNic.RxRingLen())
	}

	s.RunHostSoftirq(bigCPU(), bigBus())
	if s.PNic.RxRingLen() != 0 {
		t.Fatal("ring not drained by softirq")
	}
	if vm.Tun.Len() != 50 {
		t.Fatalf("TUN: %d; want 50", vm.Tun.Len())
	}
	if got := s.VSwitch.Lookup("f").Packets.Load(); got != 50 {
		t.Fatalf("rule counter: %d", got)
	}

	s.RunQemuRx("vm0", bigCPU(), bigBus(), time.Millisecond)
	if vm.Tun.Len() != 0 || vm.VNic.RxRingLen() != 50 {
		t.Fatalf("qemu rx: tun=%d ring=%d", vm.Tun.Len(), vm.VNic.RxRingLen())
	}

	// GuestRx drains downstream-first (backlog->socket before ring->
	// backlog), so the two-hop move completes over two invocations, as it
	// does across machine ticks.
	vm.GuestRx(bigCPU(), bigBus())
	vm.GuestRx(bigCPU(), bigBus())
	if vm.Socket.RxAvailable() != 50*1448 {
		t.Fatalf("socket: %d bytes", vm.Socket.RxAvailable())
	}
	// Every element along the path must have counted the burst.
	for _, e := range []core.Element{s.PNic, s.Driver, s.Napi, vm.Qemu, vm.Driver, vm.GuestNapi} {
		rec := e.Snapshot(0)
		if rec.GetOr(core.AttrRxPackets, 0) != 50 {
			t.Errorf("%s rx = %v; want 50", e.ID(), rec.GetOr(core.AttrRxPackets, 0))
		}
	}
}

// TestTxPipelinePhases walks the reverse path: socket send buffer -> vNIC
// tx ring -> TAP/backlog -> vswitch -> pNIC -> wire.
func TestTxPipelinePhases(t *testing.T) {
	s, vm := buildStack(t)
	s.VSwitch.InstallToPNIC("out")

	if acc := vm.Socket.Write(Batch{Flow: "out", Packets: 20, Bytes: 20 * 1448, Egress: true}); acc != 20*1448 {
		t.Fatalf("socket write accepted %d", acc)
	}
	vm.GuestTx(bigCPU(), bigBus())
	if vm.VNic.TxRingLen() != 20 {
		t.Fatalf("vNIC tx ring: %d", vm.VNic.TxRingLen())
	}
	s.RunQemuTx("vm0", bigCPU(), bigBus(), time.Millisecond)
	if s.Backlogs.TotalLen() != 20 {
		t.Fatalf("backlog after TAP transmit: %d", s.Backlogs.TotalLen())
	}
	s.RunHostSoftirq(bigCPU(), bigBus())
	out := s.DrainTx(time.Millisecond)
	if SumPackets(out) != 20 {
		t.Fatalf("wire: %d packets", SumPackets(out))
	}
}

// TestSoftirqBudgetBackpressure: with a tiny softirq budget the burst
// stays queued (ring or backlog) rather than vanishing, and repeated
// budgeted passes make steady progress.
func TestSoftirqBudgetBackpressure(t *testing.T) {
	s, vm := buildStack(t)
	s.OfferRx(rxBatch(100), time.Millisecond)
	costs := s.Cfg.Costs
	perRound := 10 * (costs.DriverCyclesPerPkt + costs.NAPICyclesPerPkt)
	for round := 0; round < 5; round++ {
		s.RunHostSoftirq(cycles(perRound), bigBus())
		moved := vm.Tun.Len()
		left := s.PNic.RxRingLen() + s.Backlogs.TotalLen()
		if moved+left != 100 {
			t.Fatalf("round %d: packets lost: moved %d, left %d", round, moved, left)
		}
	}
	if vm.Tun.Len() == 0 {
		t.Fatal("no progress across budgeted rounds")
	}
	if vm.Tun.Len() >= 100 {
		// 5 rounds of ~10-packet budgets cannot move everything through
		// both stages; if it did, the budget was ignored.
		t.Fatalf("budget ignored: moved %d", vm.Tun.Len())
	}
}

// TestInjectToVM bypasses the pNIC path (host-originated traffic).
func TestInjectToVM(t *testing.T) {
	s, vm := buildStack(t)
	s.InjectToVM("vm0", Batch{Flow: "mgmt", Packets: 3, Bytes: 300})
	if vm.Tun.Len() != 3 {
		t.Fatalf("TUN: %d", vm.Tun.Len())
	}
	s.InjectToVM("ghost", Batch{Flow: "mgmt", Packets: 3, Bytes: 300}) // no panic
}

// TestCostScales verifies SetCostScales reaches every I/O element.
func TestCostScales(t *testing.T) {
	s, vm := buildStack(t)
	s.SetCostScales(2.5, 7.0)
	if s.Driver.CostScale != 2.5 || s.Napi.CostScale != 2.5 {
		t.Fatal("softirq scale not applied")
	}
	if vm.Qemu.CostScale != 7.0 {
		t.Fatal("qemu scale not applied")
	}
	// Inflated cost must consume proportionally more budget.
	s.OfferRx(rxBatch(10), time.Millisecond)
	cpu := bigCPU()
	s.RunHostSoftirq(cpu, bigBus())
	costs := s.Cfg.Costs
	want := 10 * 2.5 * (costs.DriverCyclesPerPkt + costs.NAPICyclesPerPkt)
	if got := cpu.Spent(); got < want*0.99 || got > want*1.01 {
		t.Fatalf("softirq spent %v; want ~%v", got, want)
	}
}

// TestKernelBehind flags a backed-up vNIC ring.
func TestKernelBehind(t *testing.T) {
	s, vm := buildStack(t)
	if vm.KernelBehind() {
		t.Fatal("fresh VM already behind")
	}
	// Keep feeding while the guest never runs: the vNIC ring backs up.
	for i := 0; i < 8 && !vm.KernelBehind(); i++ {
		s.OfferRx(rxBatch(300), time.Millisecond)
		s.RunHostSoftirq(bigCPU(), bigBus())
		s.RunQemuRx("vm0", bigCPU(), bigBus(), time.Second)
	}
	if !vm.KernelBehind() {
		t.Fatalf("ring %d of %d not flagged", vm.VNic.RxRingLen(), s.Cfg.VNICRing)
	}
}
