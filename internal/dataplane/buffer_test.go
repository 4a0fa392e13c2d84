package dataplane

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"perfsight/internal/core"
)

// SumPackets returns the total packets across batches.
func SumPackets(batches []Batch) int {
	n := 0
	for _, b := range batches {
		n += b.Packets
	}
	return n
}

// SumBytes returns the total bytes across batches.
func SumBytes(batches []Batch) int64 {
	var n int64
	for _, b := range batches {
		n += b.Bytes
	}
	return n
}

func TestBatchSplitPacketsConserves(t *testing.T) {
	b := Batch{Flow: "f", Packets: 10, Bytes: 1000}
	head, tail := b.SplitPackets(3)
	if head.Packets != 3 || tail.Packets != 7 {
		t.Fatalf("split packets %d/%d", head.Packets, tail.Packets)
	}
	if head.Bytes+tail.Bytes != 1000 {
		t.Fatalf("bytes not conserved: %d + %d", head.Bytes, tail.Bytes)
	}
	if head.Flow != "f" || tail.Flow != "f" {
		t.Fatal("flow identity lost")
	}
}

func TestBatchSplitEdges(t *testing.T) {
	b := Batch{Packets: 5, Bytes: 500}
	head, tail := b.SplitPackets(10)
	if head.Packets != 5 || !tail.Empty() {
		t.Fatal("oversized split should return whole batch")
	}
	head, tail = b.SplitPackets(0)
	if !head.Empty() || tail.Packets != 5 {
		t.Fatal("zero split should return empty head")
	}
	head, tail = b.SplitBytes(5000)
	if head.Bytes != 500 || !tail.Empty() {
		t.Fatal("oversized byte split")
	}
	head, _ = b.SplitBytes(1)
	if head.Packets != 1 {
		t.Fatalf("non-empty byte split must carry at least one packet, got %d", head.Packets)
	}
}

// TestBatchSplitProperty: any split conserves packets and bytes exactly.
func TestBatchSplitProperty(t *testing.T) {
	f := func(pkts uint8, avg uint8, n uint8) bool {
		if pkts == 0 {
			return true
		}
		b := Batch{Packets: int(pkts), Bytes: int64(pkts) * int64(avg)}
		h, tl := b.SplitPackets(int(n))
		return h.Packets+tl.Packets == b.Packets && h.Bytes+tl.Bytes == b.Bytes &&
			h.Packets >= 0 && tl.Packets >= 0 && h.Bytes >= 0 && tl.Bytes >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBufferFIFO(t *testing.T) {
	b := NewBuffer(0, 0)
	b.Enqueue(Batch{Flow: "a", Packets: 1, Bytes: 10})
	b.Enqueue(Batch{Flow: "b", Packets: 1, Bytes: 20})
	got := b.Dequeue(1, -1)
	if len(got) != 1 || got[0].Flow != "a" {
		t.Fatalf("dequeue order: %v", got)
	}
	got = b.Dequeue(1, -1)
	if len(got) != 1 || got[0].Flow != "b" {
		t.Fatalf("dequeue order: %v", got)
	}
}

func TestBufferPacketCap(t *testing.T) {
	b := NewBuffer(3, 0)
	over := b.Enqueue(Batch{Flow: "f", Packets: 5, Bytes: 500})
	if b.Len() != 3 {
		t.Fatalf("len = %d; want 3", b.Len())
	}
	if over.Packets != 2 {
		t.Fatalf("overflow = %d packets; want 2", over.Packets)
	}
	if b.Bytes()+over.Bytes != 500 {
		t.Fatal("bytes not conserved across overflow")
	}
}

func TestBufferByteCap(t *testing.T) {
	b := NewBuffer(0, 100)
	over := b.Enqueue(Batch{Flow: "f", Packets: 10, Bytes: 250})
	if b.Bytes() > 100 {
		t.Fatalf("bytes = %d beyond cap", b.Bytes())
	}
	if b.Bytes()+over.Bytes != 250 {
		t.Fatal("bytes not conserved")
	}
	if free := b.FreeBytes(); free < 0 {
		t.Fatalf("free bytes negative: %d", free)
	}
}

func TestBufferDequeueBounds(t *testing.T) {
	b := NewBuffer(0, 0)
	b.Enqueue(Batch{Flow: "f", Packets: 10, Bytes: 1000})
	got := b.Dequeue(4, -1)
	if SumPackets(got) != 4 {
		t.Fatalf("packet-bounded dequeue got %d", SumPackets(got))
	}
	got = b.Dequeue(-1, 100)
	if SumBytes(got) > 100+100 { // one packet of slack for progress
		t.Fatalf("byte-bounded dequeue got %d bytes", SumBytes(got))
	}
	got = b.Dequeue(0, -1)
	if got != nil {
		t.Fatal("zero-packet dequeue returned data")
	}
}

func TestBufferPeekAndDrain(t *testing.T) {
	b := NewBuffer(0, 0)
	if _, ok := b.Peek(); ok {
		t.Fatal("peek on empty buffer")
	}
	b.Enqueue(Batch{Flow: "x", Packets: 2, Bytes: 20})
	head, ok := b.Peek()
	if !ok || head.Flow != "x" || b.Len() != 2 {
		t.Fatal("peek must not consume")
	}
	all := b.Dequeue(-1, -1)
	if SumPackets(all) != 2 || !b.Empty() {
		t.Fatal("drain incomplete")
	}
}

func TestBufferCoalescesSameFlow(t *testing.T) {
	b := NewBuffer(0, 0)
	for i := 0; i < 100; i++ {
		b.Enqueue(Batch{Flow: "same", Packets: 1, Bytes: 10})
	}
	// Internal queue should have coalesced into one entry; verify via a
	// single dequeue returning everything under one batch.
	got := b.Dequeue(-1, -1)
	if len(got) != 1 || got[0].Packets != 100 {
		t.Fatalf("coalescing failed: %d batches", len(got))
	}
}

func TestBufferNoCoalesceAcrossFlows(t *testing.T) {
	b := NewBuffer(0, 0)
	b.Enqueue(Batch{Flow: "a", Packets: 1, Bytes: 10})
	b.Enqueue(Batch{Flow: "b", Packets: 1, Bytes: 10})
	b.Enqueue(Batch{Flow: "a", Packets: 1, Bytes: 10})
	got := b.Dequeue(-1, -1)
	if len(got) != 3 {
		t.Fatalf("cross-flow coalescing: %d batches", len(got))
	}
}

// TestBufferConservationProperty: random op sequences conserve
// enqueued = dequeued + dropped + resident, in packets and bytes.
func TestBufferConservationProperty(t *testing.T) {
	type op struct {
		Enq     bool
		Pkts    uint8
		AvgSize uint8
		DeqPkts uint8
	}
	f := func(capPkts uint8, ops []op) bool {
		b := NewBuffer(int(capPkts), 0)
		var inP, outP, dropP int
		var inB, outB, dropB int64
		for _, o := range ops {
			if o.Enq {
				batch := Batch{Flow: "f", Packets: int(o.Pkts), Bytes: int64(o.Pkts) * int64(o.AvgSize)}
				if batch.Empty() {
					continue
				}
				inP += batch.Packets
				inB += batch.Bytes
				over := b.Enqueue(batch)
				dropP += over.Packets
				dropB += over.Bytes
			} else {
				for _, g := range b.Dequeue(int(o.DeqPkts), -1) {
					outP += g.Packets
					outB += g.Bytes
				}
			}
		}
		return inP == outP+dropP+b.Len() && inB == outB+dropB+b.Bytes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// sliceBuffer is the slice-walking Buffer this package used before the ring
// (append to grow, q[1:] to pop, a fresh result per Dequeue), kept as the
// reference model the ring is checked against.
type sliceBuffer struct {
	capPackets int
	capBytes   int64
	q          []Batch
	packets    int
	bytes      int64
}

func (b *sliceBuffer) freePackets() int {
	if b.capPackets == 0 {
		return int(^uint(0) >> 1)
	}
	return max(b.capPackets-b.packets, 0)
}

func (b *sliceBuffer) freeBytes() int64 {
	if b.capBytes == 0 {
		return int64(^uint64(0) >> 1)
	}
	return max(b.capBytes-b.bytes, 0)
}

func (b *sliceBuffer) enqueue(batch Batch) (overflow Batch) {
	if batch.Empty() {
		return Batch{}
	}
	fit := batch
	if free := b.freePackets(); fit.Packets > free {
		fit, overflow = fit.SplitPackets(free)
	}
	if free := b.freeBytes(); fit.Bytes > free {
		var over2 Batch
		fit, over2 = fit.SplitBytes(free)
		overflow = merge(over2, overflow)
	}
	if fit.Empty() {
		return overflow
	}
	b.packets += fit.Packets
	b.bytes += fit.Bytes
	if n := len(b.q); n > 0 {
		t := &b.q[n-1]
		if t.Flow == fit.Flow && t.DstVM == fit.DstVM && t.FB == fit.FB && t.Egress == fit.Egress {
			t.Packets += fit.Packets
			t.Bytes += fit.Bytes
			return overflow
		}
	}
	b.q = append(b.q, fit)
	return overflow
}

func (b *sliceBuffer) dequeue(maxPackets int, maxBytes int64) []Batch {
	if maxPackets == 0 || maxBytes == 0 || b.packets == 0 {
		return nil
	}
	var out []Batch
	for len(b.q) > 0 {
		head := b.q[0]
		take := head
		if maxPackets >= 0 && take.Packets > maxPackets {
			take, _ = take.SplitPackets(maxPackets)
		}
		if maxBytes >= 0 && take.Bytes > maxBytes {
			take, _ = take.SplitBytes(maxBytes)
		}
		if take.Empty() {
			break
		}
		if take.Packets == head.Packets {
			b.q = b.q[1:]
		} else {
			_, b.q[0] = head.SplitPackets(take.Packets)
		}
		b.packets -= take.Packets
		b.bytes -= take.Bytes
		out = append(out, take)
		if maxPackets >= 0 {
			if maxPackets -= take.Packets; maxPackets == 0 {
				break
			}
		}
		if maxBytes >= 0 {
			if maxBytes -= take.Bytes; maxBytes <= 0 {
				break
			}
		}
	}
	return out
}

func (b *sliceBuffer) peek() (Batch, bool) {
	if len(b.q) == 0 {
		return Batch{}, false
	}
	return b.q[0], true
}

// TestBufferMatchesSliceModel drives random Enqueue / Dequeue / Peek
// sequences against the ring and the slice model: every returned batch,
// overflow and gauge must agree after every step. Flows, destinations,
// feedback hooks and the egress mark are drawn from small sets so runs of
// coalescing and non-coalescing neighbours both occur, and the enqueue bias
// swings so the queue fills (the ring grows while wrapped), drains to empty
// (the ring is kept) and hovers (the head walks round the ring, batches
// coalesce across the wrap and heads are split in place).
func TestBufferMatchesSliceModel(t *testing.T) {
	fbs := []Feedback{nil, &recordingFB{}, &recordingFB{}}
	run := func(seed int64, capPkts uint8, capKB uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		ring := NewBuffer(int(capPkts), int64(capKB)<<10)
		model := &sliceBuffer{capPackets: int(capPkts), capBytes: int64(capKB) << 10}
		wrapped, grewWrapped := false, false
		for step := 0; step < 400; step++ {
			enqBias := []int{8, 2, 5}[step/50%3] // of 10
			switch op := rng.Intn(10); {
			case op < enqBias:
				pk := 1 + rng.Intn(12)
				batch := Batch{
					Flow:    FlowID([]string{"a", "b", "c"}[rng.Intn(3)]),
					Packets: pk,
					Bytes:   int64(pk) * int64(40+rng.Intn(1460)),
					FB:      fbs[rng.Intn(len(fbs))],
					DstVM:   []core.VMID{"", "vm0"}[rng.Intn(2)],
					Egress:  rng.Intn(4) == 0,
				}
				before := len(ring.ring)
				wasWrapped := ring.head+ring.n > len(ring.ring)
				if got, want := ring.Enqueue(batch), model.enqueue(batch); got != want {
					t.Errorf("seed %d step %d: Enqueue overflow %v; model %v", seed, step, got, want)
					return false
				}
				grewWrapped = grewWrapped || (wasWrapped && len(ring.ring) > before)
			case op < 9:
				maxP, maxB := rng.Intn(20)-1, int64(rng.Intn(9000))-1
				got, want := ring.Dequeue(maxP, maxB), model.dequeue(maxP, maxB)
				if len(got) != len(want) || (len(got) > 0 && !reflect.DeepEqual(got, want)) {
					t.Errorf("seed %d step %d: Dequeue(%d, %d) = %v; model %v", seed, step, maxP, maxB, got, want)
					return false
				}
			default:
				gb, gok := ring.Peek()
				wb, wok := model.peek()
				if gb != wb || gok != wok {
					t.Errorf("seed %d step %d: Peek = %v, %v; model %v, %v", seed, step, gb, gok, wb, wok)
					return false
				}
			}
			wrapped = wrapped || ring.head+ring.n > len(ring.ring)
			if ring.Len() != model.packets || ring.Bytes() != model.bytes ||
				ring.FreePackets() != model.freePackets() || ring.FreeBytes() != model.freeBytes() ||
				ring.Empty() != (model.packets == 0) || ring.n != len(model.q) {
				t.Errorf("seed %d step %d: gauges %d pkt %d B free %d/%d, %d entries; model %d pkt %d B free %d/%d, %d entries",
					seed, step, ring.Len(), ring.Bytes(), ring.FreePackets(), ring.FreeBytes(), ring.n,
					model.packets, model.bytes, model.freePackets(), model.freeBytes(), len(model.q))
				return false
			}
		}
		// Unbounded runs are long enough that both ring cases must have come up.
		if capPkts == 0 && capKB == 0 && !(wrapped && grewWrapped) {
			t.Errorf("seed %d: wrapped=%v grew-while-wrapped=%v; the sequence no longer covers the ring", seed, wrapped, grewWrapped)
			return false
		}
		return true
	}
	if !run(1, 0, 0) {
		return
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBufferDequeueResultLifetime pins the aliasing contract call sites
// rely on: a Dequeue result survives Enqueue on the same buffer (the pNIC
// driver re-enqueues a remainder while ranging over what it dequeued) and
// Dequeue on another buffer; only the next Dequeue on the same buffer
// reuses it.
func TestBufferDequeueResultLifetime(t *testing.T) {
	a, other := NewBuffer(0, 0), NewBuffer(0, 0)
	for _, f := range []FlowID{"a", "b", "c", "d"} {
		a.Enqueue(Batch{Flow: f, Packets: 1, Bytes: 10})
		other.Enqueue(Batch{Flow: "o-" + f, Packets: 1, Bytes: 10})
	}
	got := a.Dequeue(3, -1)
	want := append([]Batch(nil), got...)
	for i := 0; i < 16; i++ { // enough to wrap and grow a's ring
		a.Enqueue(Batch{Flow: FlowID(rune('e' + i)), Packets: 1, Bytes: 10})
	}
	other.Dequeue(-1, -1)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("result changed under Enqueue/other Dequeue: %v; want %v", got, want)
	}
	if next := a.Dequeue(1, -1); len(next) != 1 || next[0].Flow != "d" {
		t.Fatalf("FIFO order lost after growth: %v", next)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		a.Enqueue(Batch{Flow: "x", Packets: 1, Bytes: 10})
		a.Enqueue(Batch{Flow: "y", Packets: 1, Bytes: 10})
		a.Dequeue(-1, -1)
	}); allocs != 0 {
		t.Fatalf("steady-state Enqueue+Dequeue allocates %.1f objects; want 0", allocs)
	}
}

// TestBufferDequeueAllocFree: once the ring has grown, no Dequeue
// allocates at any fill level it holds, whether it drains the queue, stops
// on a packet or byte bound, or splits the head. The ring is grown and
// drained one entry at a time first, so the result slice never grew
// through Dequeue itself.
func TestBufferDequeueAllocFree(t *testing.T) {
	flows := [2]FlowID{"a", "b"} // alternating, so entries never coalesce
	grown := func() *Buffer {
		b := NewBuffer(0, 0)
		for i := 0; i < 64; i++ {
			b.Enqueue(Batch{Flow: flows[i%2], Packets: 2, Bytes: 200})
		}
		for !b.Empty() {
			b.Dequeue(2, -1)
		}
		return b
	}
	// AllocsPerRun makes one warm-up call before the measured one; each
	// gets its own freshly grown buffer.
	bufs := []*Buffer{grown(), grown()}
	runs := 0
	allocs := testing.AllocsPerRun(1, func() {
		b := bufs[runs]
		runs++
		for k := 1; k <= len(b.ring); k++ {
			for _, bound := range [][2]int{{-1, -1}, {2*k - 2, -1}, {-1, 200*k - 100}, {2*k - 1, -1}} {
				for i := 0; i < k; i++ {
					b.Enqueue(Batch{Flow: flows[i%2], Packets: 2, Bytes: 200})
				}
				b.Dequeue(bound[0], int64(bound[1]))
				b.Dequeue(-1, -1)
			}
		}
	})
	if len(bufs[1].ring) != 64 {
		t.Fatalf("ring grew to %d entries during the run; want 64", len(bufs[1].ring))
	}
	if allocs != 0 {
		t.Fatalf("Dequeue allocated %.0f objects across fill levels 1..64; want 0", allocs)
	}
}

func TestFeedbackNotifications(t *testing.T) {
	fb := &recordingFB{}
	b := Batch{Flow: "f", Packets: 2, Bytes: 20, FB: fb}
	b.NotifyDelivered()
	b.NotifyDropped("m0/tun")
	if fb.delivered != 20 || fb.dropped != 20 || fb.where != "m0/tun" {
		t.Fatalf("feedback: %+v", fb)
	}
	empty := Batch{FB: fb}
	empty.NotifyDelivered() // no-op for empty batches
	if fb.delivered != 20 {
		t.Fatal("empty batch notified")
	}
}
