// Package dataplane models the software dataplane of one physical server as
// the pipeline of elements in Figure 5 of the paper: pNIC, pNIC driver,
// per-CPU backlog queues, the NAPI routine, the virtual switch, per-VM TUN
// socket queues, the hypervisor I/O handler (QEMU), and the guest-side
// elements (vNIC, vNIC driver, vCPU backlog, guest NAPI, guest socket).
//
// Traffic is represented as fluid batches of packets that flow through
// bounded buffers; every buffer boundary where the Linux/QEMU datapath can
// drop packets is a drop-accounting point here, so the counters PerfSight
// gathers have the same locations and semantics as on the paper's testbed.
package dataplane

import (
	"fmt"

	"perfsight/internal/core"
)

// FlowID identifies one end-to-end traffic flow (a TCP connection, a UDP
// stream, or an aggregate the virtual switch matches on).
type FlowID string

// Feedback receives delivery and loss notifications for a flow's batches.
// Stream transports use it to drive retransmission and congestion control;
// open-loop sources use it to adapt their offered rate (AIMD).
//
// Implementations must tolerate being called from the machine tick loop.
type Feedback interface {
	// Delivered reports packets that reached the flow's destination socket.
	Delivered(packets int, bytes int64)
	// Dropped reports packets discarded at the given element.
	Dropped(packets int, bytes int64, where core.ElementID)
}

// Batch is a fluid chunk of one flow's traffic: some number of packets
// totalling some number of bytes. Batches are value types; splitting a
// batch conserves packets and bytes exactly.
type Batch struct {
	Flow    FlowID
	Packets int
	Bytes   int64
	// FB, if non-nil, is notified when the batch is delivered or dropped.
	FB Feedback
	// DstVM is the VM the batch is addressed to on its current machine, or
	// "" if it leaves via the pNIC. The virtual switch routes on it.
	DstVM core.VMID
	// Egress marks traffic travelling VM-to-wire (set when a VM transmits).
	Egress bool
}

// AvgSize returns the average packet size of the batch, in bytes.
func (b Batch) AvgSize() int {
	if b.Packets == 0 {
		return 0
	}
	return int(b.Bytes / int64(b.Packets))
}

// Empty reports whether the batch carries no traffic.
func (b Batch) Empty() bool { return b.Packets <= 0 && b.Bytes <= 0 }

// SplitPackets divides the batch into a head of at most n packets and the
// remaining tail. Bytes are apportioned proportionally, conserving totals.
func (b Batch) SplitPackets(n int) (head, tail Batch) {
	if n >= b.Packets {
		return b, Batch{}
	}
	if n <= 0 {
		return Batch{}, b
	}
	head = b
	tail = b
	head.Packets = n
	head.Bytes = b.Bytes * int64(n) / int64(b.Packets)
	tail.Packets = b.Packets - n
	tail.Bytes = b.Bytes - head.Bytes
	return head, tail
}

// SplitBytes divides the batch into a head of at most maxBytes and the
// remaining tail, keeping packet counts proportional. A non-empty head
// always carries at least one packet so progress is guaranteed.
func (b Batch) SplitBytes(maxBytes int64) (head, tail Batch) {
	if maxBytes >= b.Bytes {
		return b, Batch{}
	}
	if maxBytes <= 0 || b.Packets == 0 {
		return Batch{}, b
	}
	n := int(int64(b.Packets) * maxBytes / b.Bytes)
	if n == 0 {
		n = 1
	}
	return b.SplitPackets(n)
}

func (b Batch) String() string {
	return fmt.Sprintf("{%s %dpkt %dB dst=%s}", b.Flow, b.Packets, b.Bytes, b.DstVM)
}

// NotifyDropped credits the batch's drop to where via its feedback hook.
func (b Batch) NotifyDropped(where core.ElementID) {
	if b.FB != nil && !b.Empty() {
		b.FB.Dropped(b.Packets, b.Bytes, where)
	}
}

// NotifyDelivered reports the batch's arrival via its feedback hook.
func (b Batch) NotifyDelivered() {
	if b.FB != nil && !b.Empty() {
		b.FB.Delivered(b.Packets, b.Bytes)
	}
}
