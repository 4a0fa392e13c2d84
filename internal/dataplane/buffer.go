package dataplane

import "sync/atomic"

// Buffer is a bounded FIFO of batches — the model of every queue on the
// software datapath (NIC rings, per-CPU backlogs, TUN socket queues, guest
// socket buffers). Capacity may be bounded in packets, bytes, or both
// (zero means unbounded in that dimension).
//
// Enqueue never blocks: whatever does not fit is returned to the caller,
// which then decides whether the overflow is a drop (non-blocking producer,
// e.g. the virtual switch writing to a TUN) or backpressure (blocking
// producer, e.g. QEMU writing to a full vNIC ring). Drops are accounted by
// the owning element, not the buffer, because attribution — *which* element
// dropped — is exactly the signal Algorithm 1 diagnoses on.
//
// The queue has a single writer (the machine tick loop that owns it) and
// allocates only while its ring grows toward its working size: batches
// live in one ring that is kept when the buffer empties, and Dequeue fills
// a slice the buffer owns, sized with the ring. Only the occupancy gauges may be read from other
// goroutines (agent snapshots), so they are atomics.
type Buffer struct {
	capPackets int
	capBytes   int64

	// ring[(head+i)&(len(ring)-1)] for i < n are the queued batches, oldest
	// first; len(ring) is zero or a power of two.
	ring    []Batch
	head, n int
	out     []Batch // the last Dequeue's result
	packets atomic.Int64
	bytes   atomic.Int64
}

// NewBuffer returns a buffer bounded by capPackets packets and capBytes
// bytes; zero disables that bound.
func NewBuffer(capPackets int, capBytes int64) *Buffer {
	return &Buffer{capPackets: capPackets, capBytes: capBytes}
}

// Len returns the number of queued packets.
func (b *Buffer) Len() int { return int(b.packets.Load()) }

// Bytes returns the number of queued bytes.
func (b *Buffer) Bytes() int64 { return b.bytes.Load() }

// CapPackets returns the packet bound (0 = unbounded).
func (b *Buffer) CapPackets() int { return b.capPackets }

// FreePackets returns remaining packet capacity (MaxInt-ish if unbounded).
func (b *Buffer) FreePackets() int {
	if b.capPackets == 0 {
		return int(^uint(0) >> 1)
	}
	n := int(b.packets.Load())
	if n >= b.capPackets {
		return 0
	}
	return b.capPackets - n
}

// FreeBytes returns remaining byte capacity (MaxInt64 if unbounded).
func (b *Buffer) FreeBytes() int64 {
	if b.capBytes == 0 {
		return int64(^uint64(0) >> 1)
	}
	n := b.bytes.Load()
	if n >= b.capBytes {
		return 0
	}
	return b.capBytes - n
}

// Empty reports whether the buffer holds no traffic.
func (b *Buffer) Empty() bool { return b.packets.Load() == 0 }

// Enqueue appends as much of batch as fits and returns the overflow.
func (b *Buffer) Enqueue(batch Batch) (overflow Batch) {
	if batch.Empty() {
		return Batch{}
	}
	fit := batch
	if free := b.FreePackets(); fit.Packets > free {
		fit, overflow = fit.SplitPackets(free)
	}
	if free := b.FreeBytes(); fit.Bytes > free {
		var over2 Batch
		fit, over2 = fit.SplitBytes(free)
		overflow = merge(over2, overflow)
	}
	b.push(fit)
	return overflow
}

func (b *Buffer) push(batch Batch) {
	if batch.Empty() {
		return
	}
	b.packets.Add(int64(batch.Packets))
	b.bytes.Add(batch.Bytes)
	// Coalesce with the tail when it is the same flow and destination, to
	// keep queues short under fluid traffic.
	if b.n > 0 {
		t := &b.ring[(b.head+b.n-1)&(len(b.ring)-1)]
		if t.Flow == batch.Flow && t.DstVM == batch.DstVM && t.FB == batch.FB && t.Egress == batch.Egress {
			t.Packets += batch.Packets
			t.Bytes += batch.Bytes
			return
		}
	}
	if b.n == len(b.ring) {
		b.grow()
	}
	b.ring[(b.head+b.n)&(len(b.ring)-1)] = batch
	b.n++
}

// grow doubles the ring, unwrapping the queue to its start, and sizes the
// Dequeue result to match: a Dequeue returns at most one batch per queued
// entry (each batch it takes either pops an entry or splits the head and
// ends the call), so it never outgrows len(ring). The previous result is
// left to whoever still ranges over it.
func (b *Buffer) grow() {
	ring := make([]Batch, max(4, 2*len(b.ring)))
	k := copy(ring, b.ring[b.head:])
	copy(ring[k:], b.ring[:b.head])
	b.ring, b.head = ring, 0
	b.out = make([]Batch, 0, len(ring))
}

// merge combines two (possibly empty) overflow fragments of the same batch.
func merge(a, b Batch) Batch {
	if a.Empty() {
		return b
	}
	if b.Empty() {
		return a
	}
	a.Packets += b.Packets
	a.Bytes += b.Bytes
	return a
}

// Dequeue removes and returns up to maxPackets packets and maxBytes bytes,
// preserving FIFO order. Negative bounds mean "no limit in that dimension".
// A head batch is split if only part of it fits within the bounds.
//
// The result is the buffer's own scratch: it is valid until the next
// Dequeue on this buffer (Enqueue here, and anything on another buffer,
// leave it alone), so range over it and forward — copy what must outlive
// that.
func (b *Buffer) Dequeue(maxPackets int, maxBytes int64) []Batch {
	if maxPackets == 0 || maxBytes == 0 || b.packets.Load() == 0 {
		return nil
	}
	out := b.out[:0]
	for b.n > 0 {
		head := &b.ring[b.head]
		take := *head
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
			b.head = (b.head + 1) & (len(b.ring) - 1)
			b.n--
		} else {
			_, *head = head.SplitPackets(take.Packets)
		}
		b.packets.Add(int64(-take.Packets))
		b.bytes.Add(-take.Bytes)
		out = append(out, take)
		if maxPackets >= 0 {
			maxPackets -= take.Packets
			if maxPackets == 0 {
				break
			}
		}
		if maxBytes >= 0 {
			maxBytes -= take.Bytes
			if maxBytes <= 0 {
				break
			}
		}
	}
	b.out = out
	return out
}

// Peek returns the head batch without removing it.
func (b *Buffer) Peek() (Batch, bool) {
	if b.n == 0 {
		return Batch{}, false
	}
	return b.ring[b.head], true
}
