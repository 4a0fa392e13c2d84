package dataplane

import (
	"slices"

	"perfsight/internal/core"
)

// NAPI models the host softirq routine that dequeues per-CPU backlog
// queues and passes each packet to the virtual switch frame handler (a
// function call, so no buffer of its own). Output to a TUN is a
// non-blocking socket write — overflow drops at the TUN — while output to
// the pNIC requires transmit-queue space: when the wire is the bottleneck
// the NAPI routine stops dequeuing, the backlog fills, and subsequent
// enqueues drop there (the Fig 8 outgoing-bandwidth signature).
type NAPI struct {
	Base
	// CyclesPerPacket is the softirq + switch-lookup cost per packet.
	CyclesPerPacket float64
	// MembusFactor is bus bytes per wire byte for the TUN socket write.
	MembusFactor float64
	// CostScale inflates the per-packet cost under host CPU load.
	CostScale float64

	blocked []bool // Run's per-queue head-of-line marks, kept across runs
}

// NewNAPI builds the host NAPI element.
func NewNAPI(id core.ElementID, cyclesPerPacket, membusFactor float64) *NAPI {
	return &NAPI{
		Base:            NewBase(id, core.KindNAPIRoutine),
		CyclesPerPacket: cyclesPerPacket,
		MembusFactor:    membusFactor,
	}
}

// Run processes the backlog queues round-robin until the cycle budget is
// exhausted or every queue is empty/head-of-line blocked.
func (n *NAPI) Run(backlogs *BacklogSet, vsw *VSwitch, nic *PNIC, tuns map[core.VMID]*TUN, cpu *CycleBudget, bus *MembusBudget) {
	cost := n.CyclesPerPacket * scaleOr1(n.CostScale)
	queues := backlogs.Queues()
	n.blocked = slices.Grow(n.blocked[:0], len(queues))[:len(queues)]
	blocked := n.blocked
	clear(blocked)
	for {
		progress := false
		for qi, q := range queues {
			if blocked[qi] || q.q.Empty() {
				continue
			}
			head, ok := q.q.Peek()
			if !ok {
				continue
			}
			budgetPkts := cpu.PacketsFor(cost)
			if budgetPkts == 0 {
				return
			}
			rule := vsw.Lookup(head.Flow)
			switch {
			case rule == nil || rule.Action == ActionDrop:
				got := q.q.Dequeue(min(budgetPkts, head.Packets), -1)
				for _, b := range got {
					cpu.SpendPackets(b.Packets, cost)
					q.CountTx(b)
					n.CountRx(b)
					vsw.DropUnmatched(b)
				}
				progress = len(got) > 0

			case rule.Action == ActionToPNIC:
				space := nic.TxSpace()
				if space == 0 {
					blocked[qi] = true // HOL block: wire is the bottleneck
					continue
				}
				got := q.q.Dequeue(min(min(budgetPkts, space), head.Packets), -1)
				for _, b := range got {
					cpu.SpendPackets(b.Packets, cost)
					q.CountTx(b)
					n.CountRx(b)
					n.CountTx(b)
					vsw.Count(rule, b)
					nic.EnqueueTx(b)
				}
				progress = len(got) > 0

			case rule.Action == ActionToVM:
				tun, ok := tuns[rule.VM]
				if !ok {
					got := q.q.Dequeue(min(budgetPkts, head.Packets), -1)
					for _, b := range got {
						cpu.SpendPackets(b.Packets, cost)
						q.CountTx(b)
						vsw.DropUnmatched(b)
					}
					progress = len(got) > 0
					continue
				}
				// Socket write to the TUN costs a copy on the memory bus.
				maxBytes := bus.WireBytesFor(n.MembusFactor)
				if maxBytes == 0 {
					return
				}
				got := q.q.Dequeue(min(budgetPkts, head.Packets), maxBytes)
				for _, b := range got {
					cpu.SpendPackets(b.Packets, cost)
					bus.SpendWireBytes(b.Bytes, n.MembusFactor)
					q.CountTx(b)
					n.CountRx(b)
					n.CountTx(b)
					vsw.Count(rule, b)
					b.DstVM = rule.VM
					tun.Write(b)
				}
				progress = len(got) > 0
			}
		}
		if !progress {
			return
		}
	}
}
