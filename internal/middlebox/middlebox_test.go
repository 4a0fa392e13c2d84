package middlebox_test

import (
	"testing"
	"time"

	"perfsight/internal/core"
	"perfsight/internal/dataplane"
	"perfsight/internal/machine"
	. "perfsight/internal/middlebox"
)

// fastOutput accepts everything instantly.
type fastOutput struct{ bytes int64 }

func (o *fastOutput) Free() int64                   { return 1 << 40 }
func (o *fastOutput) Write(b dataplane.Batch) int64 { o.bytes += b.Bytes; return b.Bytes }
func (o *fastOutput) Pump(time.Duration)            {}

// blockedOutput accepts nothing.
type blockedOutput struct{}

func (blockedOutput) Free() int64                   { return 0 }
func (blockedOutput) Write(b dataplane.Batch) int64 { return 0 }
func (blockedOutput) Pump(time.Duration)            {}

// appHarness drives a single app against a real VM stack column without a
// full machine: deliver bytes into the socket, step the app, observe.
type appHarness struct {
	vm  *dataplane.VMStack
	ctx *machine.AppContext
}

func newHarness(t *testing.T) *appHarness {
	t.Helper()
	stack := dataplane.NewStack(dataplane.DefaultStackConfig("m0", 2))
	vm := stack.AddVM("vm0", 1e9)
	return &appHarness{vm: vm}
}

// step runs one 1 ms tick of the app with the given vCPU cycles.
func (h *appHarness) step(app machine.App, now time.Duration, cycles float64) {
	h.ctx = &machine.AppContext{
		Now:  now,
		Dt:   time.Millisecond,
		VM:   h.vm,
		VCPU: cycleBudget(cycles),
		Bus:  busBudget(1 << 30),
	}
	app.Step(h.ctx)
}

// cycleBudget and busBudget build a budget the way Machine.Tick does: a
// value, Reset.
func cycleBudget(cycles float64) *dataplane.CycleBudget {
	var b dataplane.CycleBudget
	b.Reset(cycles)
	return &b
}

func busBudget(bytes int64) *dataplane.MembusBudget {
	var b dataplane.MembusBudget
	b.Reset(bytes, nil)
	return &b
}

func (h *appHarness) deliver(bytes int64) {
	pkts := int(bytes / 1448)
	if pkts == 0 {
		pkts = 1
	}
	h.vm.Socket.DeliverRx(dataplane.Batch{Flow: "in", Packets: pkts, Bytes: bytes})
}

func TestForwarderMovesInputToOutput(t *testing.T) {
	h := newHarness(t)
	out := &fastOutput{}
	f := NewProxy("m0/vm0/app", 1e9, out)
	h.deliver(10000)
	h.step(f, time.Millisecond, 2.5e6)
	if out.bytes != 10000 {
		t.Fatalf("forwarded %d; want 10000", out.bytes)
	}
	if f.ProcessedBytes() != 10000 {
		t.Fatalf("processed counter %d", f.ProcessedBytes())
	}
}

func TestForwarderCPUBoundIsNeitherBlocked(t *testing.T) {
	h := newHarness(t)
	f := NewForwarder("m0/vm0/app", 1e9, ForwardConfig{CyclesPerByte: 100}, &fastOutput{})
	h.deliver(1 << 20) // far more than 25k cycles can move
	h.step(f, time.Millisecond, 25_000)
	rec := f.Snapshot(0)
	moved := rec.GetOr(core.AttrInBytes, 0)
	if moved == 0 || moved > 1448 { // one-packet fluid granularity
		t.Fatalf("cpu-bound moved %v; want <= one packet", moved)
	}
	// CPU-bound: in-time is memcpy-scale, so b/t_in is enormous (not
	// ReadBlocked) and out-time likewise.
	inNS := rec.GetOr(core.AttrInTimeNS, 0)
	if inNS > 1e5 {
		t.Fatalf("cpu-bound charged %v ns of input time", inNS)
	}
}

func TestForwarderInputStarvedIsReadBlockedShape(t *testing.T) {
	h := newHarness(t)
	f := NewProxy("m0/vm0/app", 1e9, &fastOutput{})
	h.deliver(100) // a trickle
	h.step(f, time.Millisecond, 2.5e6)
	rec := f.Snapshot(0)
	inNS := rec.GetOr(core.AttrInTimeNS, 0)
	// Nearly the whole tick must be charged as input (block) time.
	if inNS < 0.9e6 {
		t.Fatalf("starved forwarder charged only %v ns input time", inNS)
	}
	inBps := rec.GetOr(core.AttrInBytes, 0) * 8 / (inNS / 1e9)
	if inBps >= 1e9 {
		t.Fatalf("b/t_in %v should be below capacity when starved", inBps)
	}
}

func TestForwarderOutputBlockedIsWriteBlockedShape(t *testing.T) {
	h := newHarness(t)
	f := NewProxy("m0/vm0/app", 1e9, blockedOutput{})
	h.deliver(1 << 20)
	h.step(f, time.Millisecond, 2.5e6)
	rec := f.Snapshot(0)
	outNS := rec.GetOr(core.AttrOutTimeNS, 0)
	if outNS < 0.9e6 {
		t.Fatalf("blocked forwarder charged only %v ns output time", outNS)
	}
	if got := rec.GetOr(core.AttrInBytes, 0); got != 0 {
		t.Fatalf("forwarder read %v bytes it could not write", got)
	}
}

func TestFirewallDropsPolicyFraction(t *testing.T) {
	h := newHarness(t)
	out := &fastOutput{}
	f := NewFirewall("m0/vm0/app", 1e9, 0.25, out)
	h.deliver(100000)
	h.step(f, time.Millisecond, 2.5e7)
	if out.bytes >= 100000 || out.bytes < 70000 {
		t.Fatalf("firewall forwarded %d of 100000 with 25%% drop policy", out.bytes)
	}
}

func TestREOutputCompression(t *testing.T) {
	h := newHarness(t)
	out := &fastOutput{}
	f := NewRedundancyEliminator("m0/vm0/app", 1e9, 0.5, out)
	h.deliver(100000)
	for i := 0; i < 20; i++ {
		h.step(f, time.Duration(i+1)*time.Millisecond, 2.5e7)
	}
	if out.bytes < 45000 || out.bytes > 55000 {
		t.Fatalf("RE emitted %d of 100000 at ratio 0.5", out.bytes)
	}
}

func TestContentFilterLogsToSecondaryOutput(t *testing.T) {
	h := newHarness(t)
	out := &fastOutput{}
	logOut := &fastOutput{}
	f := NewContentFilter("m0/vm0/app", 1e9, 0.1, out)
	f.SetLogOutput(logOut)
	h.deliver(100000)
	for i := 0; i < 10; i++ {
		h.step(f, time.Duration(i+1)*time.Millisecond, 2.5e7)
	}
	if out.bytes != 100000 {
		t.Fatalf("primary forwarded %d", out.bytes)
	}
	if logOut.bytes < 9000 || logOut.bytes > 11000 {
		t.Fatalf("log output %d; want ~10%%", logOut.bytes)
	}
}

func TestContentFilterStallsWhenLogBlocked(t *testing.T) {
	h := newHarness(t)
	out := &fastOutput{}
	f := NewContentFilter("m0/vm0/app", 1e9, 0.1, out)
	f.SetLogOutput(blockedOutput{})
	h.deliver(100000)
	h.step(f, time.Millisecond, 2.5e7)
	if out.bytes != 0 {
		t.Fatalf("CF forwarded %d despite a blocked log", out.bytes)
	}
	rec := f.Snapshot(0)
	if rec.GetOr(core.AttrOutTimeNS, 0) < 0.9e6 {
		t.Fatal("blocked log should charge output time (WriteBlocked)")
	}
}

func TestServerConsumesAtCPURate(t *testing.T) {
	h := newHarness(t)
	s := NewServer("m0/vm0/app", 1e9, 100)
	h.deliver(1 << 20)
	h.step(s, time.Millisecond, 100_000) // 1000 bytes worth of cycles
	if got := s.ConsumedBytes(); got == 0 || got > 1448 {
		t.Fatalf("server consumed %d; want <= one packet", got)
	}
	// CPU-bound server: neither blocked (Fig 12 servers stay candidates).
	rec := s.Snapshot(0)
	if rec.GetOr(core.AttrInTimeNS, 0) > 1e5 {
		t.Fatal("cpu-bound server charged block time")
	}
	if _, ok := rec.Get(core.AttrOutBytes); !ok {
		t.Fatal("output counters should exist (at zero)")
	}
	if rec.GetOr(core.AttrOutBytes, -1) != 0 {
		t.Fatal("server has no network output")
	}
}

func TestServerDiskBound(t *testing.T) {
	h := newHarness(t)
	s := NewNFSServer("m0/vm0/app", 1e9, 1e6) // 1 MB/s disk
	h.deliver(1 << 20)
	h.step(s, time.Millisecond, 2.5e7)
	if got := s.ConsumedBytes(); got > 1448 {
		t.Fatalf("disk-bound server consumed %d per ms; want <= one packet", got)
	}
}

func TestServerLeakDegradesOverTime(t *testing.T) {
	h := newHarness(t)
	s := NewServer("m0/vm0/app", 1e9, 10)
	s.InjectLeak(0, 10)
	h.deliver(1 << 22)
	h.step(s, 0, 2.5e6)
	early := s.ConsumedBytes()
	h.deliver(1 << 22)
	h.step(s, 10*time.Second, 2.5e6)
	late := s.ConsumedBytes() - early
	if float64(late) > 0.05*float64(early) {
		t.Fatalf("leak barely degraded: %d then %d", early, late)
	}
	s.HealLeak()
	h.deliver(1 << 22)
	before := s.ConsumedBytes()
	h.step(s, 20*time.Second, 2.5e6)
	if healed := s.ConsumedBytes() - before; healed < early/2 {
		t.Fatalf("healed server still slow: %d vs %d", healed, early)
	}
}

func TestSinkReadsEverything(t *testing.T) {
	h := newHarness(t)
	s := NewSink("m0/vm0/app", 1e9)
	h.deliver(50000)
	h.step(s, time.Millisecond, 2.5e6)
	if s.ReceivedBytes() != 50000 {
		t.Fatalf("sink read %d", s.ReceivedBytes())
	}
	if s.ReceivedPackets() == 0 {
		t.Fatal("packet accounting missing")
	}
	if bps := s.WindowThroughputBps(time.Second); bps <= 0 {
		t.Fatalf("window throughput %v", bps)
	}
}

func TestRawSourceRateAndAccounting(t *testing.T) {
	h := newHarness(t)
	src := NewRawSource("m0/vm0/app", 1e9, "f", 80e6, 1448, nil)
	for i := 0; i < 100; i++ {
		h.step(src, time.Duration(i+1)*time.Millisecond, 2.5e6)
		h.vm.Socket.DequeueTx(-1, 1<<30) // drain so the socket never binds
	}
	bps := float64(src.SentBytes()) * 8 / 0.1
	if bps < 70e6 || bps > 90e6 {
		t.Fatalf("raw source %.0f bps; want ~80e6", bps)
	}
	if src.SentPackets() == 0 {
		t.Fatal("packets not counted")
	}
}

func TestInstrumentationTogglesChargeCycles(t *testing.T) {
	run := func(timers bool) float64 {
		h := newHarness(t)
		f := NewProxy("m0/vm0/app", 1e9, &fastOutput{})
		f.SetTimeCountersEnabled(timers)
		h.deliver(1 << 20)
		budget := cycleBudget(2.5e6)
		ctx := &machine.AppContext{Now: 0, Dt: time.Millisecond, VM: h.vm, VCPU: budget, Bus: busBudget(1 << 30)}
		f.Step(ctx)
		return budget.Spent()
	}
	with := run(true)
	without := run(false)
	if with <= without {
		t.Fatalf("instrumentation free: with=%v without=%v", with, without)
	}
}

func TestTranscoderBusyWaitNeverBlocks(t *testing.T) {
	h := newHarness(t)
	f := NewTranscoder("m0/vm0/app", 1e9, &fastOutput{})
	if f.CPUDemand(time.Millisecond) < 2.4e6 {
		t.Fatal("transcoder must demand the whole core")
	}
	budget := cycleBudget(2.5e6)
	ctx := &machine.AppContext{Now: 0, Dt: time.Millisecond, VM: h.vm, VCPU: budget, Bus: busBudget(1 << 30)}
	f.Step(ctx) // no input at all
	// The spinner burns ~90% of the slice (it cannot starve the guest
	// kernel outright).
	if budget.Remaining() > 0.15*2.5e6 {
		t.Fatalf("spinner left %.0f cycles on the table", budget.Remaining())
	}
	rec := f.Snapshot(0)
	if rec.GetOr(core.AttrInTimeNS, 0) > 1e5 {
		t.Fatal("non-blocking transcoder charged block time while starved")
	}
}

func TestMboxKindFactory(t *testing.T) {
	for k := KindProxy; k <= KindTranscoder; k++ {
		f := NewOfKind(k, "m0/vm0/app", 1e9, &fastOutput{})
		if f == nil {
			t.Fatalf("kind %v returned nil", k)
		}
		if f.ID() != "m0/vm0/app" {
			t.Fatalf("kind %v id %s", k, f.ID())
		}
		if k.String() == "unknown" {
			t.Fatalf("kind %v has no name", int(k))
		}
	}
}

func TestSnapshotCarriesAlgorithm2Inputs(t *testing.T) {
	f := NewProxy("m0/vm0/app", 2e8, &fastOutput{})
	rec := f.Snapshot(42)
	if rec.GetOr(core.AttrType, 0) != 1 {
		t.Fatal("middlebox type tag missing")
	}
	if rec.GetOr(core.AttrCapacityBps, 0) != 2e8 {
		t.Fatal("capacity missing")
	}
	for _, a := range []core.AttrID{core.AttrInBytes, core.AttrInTimeNS, core.AttrOutBytes, core.AttrOutTimeNS} {
		if _, ok := rec.Get(a); !ok {
			t.Fatalf("missing %s", core.AttrName(a))
		}
	}
}

func TestSizeHistogramOptIn(t *testing.T) {
	h := newHarness(t)
	f := NewProxy("m0/vm0/app", 1e9, &fastOutput{})
	f.EnableSizeHistogram()
	h.deliver(14480)
	h.step(f, time.Millisecond, 2.5e6)
	rec := f.Snapshot(0)
	found := false
	for _, a := range rec.Attrs {
		if a.Name() == "size_le_1518" && a.Value > 0 {
			found = true
		}
	}
	if !found {
		t.Fatalf("histogram attrs missing: %v", rec.Attrs)
	}
}
