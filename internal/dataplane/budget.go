package dataplane

// CycleBudget is a per-tick grant of CPU cycles to a datapath consumer
// (the softirq path, one VM's QEMU I/O thread, one VM's vCPU). Stack
// phases draw cycles as they process packets; what remains unspent at the
// end of the tick measures idle headroom.
type CycleBudget struct {
	Cycles float64
	spent  float64
}

// Reset makes b a fresh grant of the given cycles, nothing spent: whoever
// ticks a consumer holds its budget by value and resets it each tick.
func (b *CycleBudget) Reset(cycles float64) {
	*b = CycleBudget{Cycles: cycles}
}

// PacketsFor returns how many packets the remaining cycles can process at
// costPerPacket cycles each.
func (b *CycleBudget) PacketsFor(costPerPacket float64) int {
	if b == nil {
		return int(^uint(0) >> 1)
	}
	if costPerPacket <= 0 {
		return int(^uint(0) >> 1)
	}
	n := (b.Cycles - b.spent) / costPerPacket
	if n <= 0 {
		return 0
	}
	return int(n)
}

// BytesFor returns how many bytes the remaining cycles can process at
// costPerByte cycles each.
func (b *CycleBudget) BytesFor(costPerByte float64) int64 {
	if b == nil || costPerByte <= 0 {
		return int64(^uint64(0) >> 1)
	}
	n := (b.Cycles - b.spent) / costPerByte
	if n <= 0 {
		return 0
	}
	return int64(n)
}

// SpendPackets charges n packets at costPerPacket cycles each.
func (b *CycleBudget) SpendPackets(n int, costPerPacket float64) {
	if b == nil || n <= 0 {
		return
	}
	b.spent += float64(n) * costPerPacket
}

// SpendCycles charges raw cycles.
func (b *CycleBudget) SpendCycles(c float64) {
	if b == nil || c <= 0 {
		return
	}
	b.spent += c
}

// Spent returns the cycles consumed so far this tick.
func (b *CycleBudget) Spent() float64 {
	if b == nil {
		return 0
	}
	return b.spent
}

// Remaining returns the unspent cycles.
func (b *CycleBudget) Remaining() float64 {
	if b == nil {
		return 0
	}
	r := b.Cycles - b.spent
	if r < 0 {
		return 0
	}
	return r
}

// Exhausted reports whether no useful work can still be charged.
func (b *CycleBudget) Exhausted() bool {
	return b != nil && b.spent >= b.Cycles
}

// MembusBudget is the per-tick grant of memory-bus bytes available to the
// machine's datapath copies (DMA, QEMU copies, guest copies). Memory-hog
// workloads are served before this budget is computed — the streaming-
// priority calibration of DESIGN.md §5 — so bus contention manifests
// exactly as in the paper: the datapath silently slows and packets back up
// into the TUN queues.
type MembusBudget struct {
	Bytes int64
	spent int64
	// parent, when set, is a shared pool this budget also draws from: the
	// consumer is limited by both its own cap (fair-share isolation) and
	// the pool (physical capacity), making the allocation work-conserving —
	// slack left by one consumer is usable by the next up to its cap.
	parent *MembusBudget
}

// Reset makes m a fresh grant of the given bus bytes, nothing spent, that
// also draws from pool (nil for none): whoever ticks a consumer holds its
// budget by value and resets it each tick.
func (m *MembusBudget) Reset(bytes int64, pool *MembusBudget) {
	*m = MembusBudget{Bytes: bytes, parent: pool}
}

// WireBytesFor returns how many wire bytes can be copied given factor bus
// bytes consumed per wire byte.
func (m *MembusBudget) WireBytesFor(factor float64) int64 {
	if m == nil || factor <= 0 {
		return int64(^uint64(0) >> 1)
	}
	avail := m.Bytes - m.spent
	if m.parent != nil {
		if p := m.parent.Bytes - m.parent.spent; p < avail {
			avail = p
		}
	}
	n := float64(avail) / factor
	if n <= 0 {
		return 0
	}
	return int64(n)
}

// SpendWireBytes charges n wire bytes at the given bus-bytes factor.
func (m *MembusBudget) SpendWireBytes(n int64, factor float64) {
	if m == nil || n <= 0 {
		return
	}
	c := int64(float64(n) * factor)
	m.spent += c
	if m.parent != nil {
		m.parent.spent += c
	}
}

// Spent returns bus bytes consumed this tick.
func (m *MembusBudget) Spent() int64 {
	if m == nil {
		return 0
	}
	return m.spent
}

// Remaining returns unspent bus bytes.
func (m *MembusBudget) Remaining() int64 {
	if m == nil {
		return 0
	}
	r := m.Bytes - m.spent
	if r < 0 {
		return 0
	}
	return r
}
