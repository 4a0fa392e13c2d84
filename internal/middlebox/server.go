package middlebox

import (
	"time"

	"perfsight/internal/core"
	"perfsight/internal/machine"
)

// Server is a terminating middlebox (HTTP server, NFS log server): it
// reads from the VM socket and consumes the data at a per-byte cost,
// optionally gated by a disk rate. It has no network output, so its
// output counters stay zero — the "N/A" columns of Fig 12 — and it can
// never be classified WriteBlocked; when it is the bottleneck it simply
// remains in Algorithm 2's candidate set.
type Server struct {
	Base
	// CyclesPerByte is the request-processing cost.
	CyclesPerByte float64
	// CyclesPerPacket is the per-request overhead.
	CyclesPerPacket float64
	// MembusFactor is bus bytes per processed byte.
	MembusFactor float64
	// DiskBps bounds consumption by storage bandwidth (0 = no disk).
	DiskBps float64
	// LeakPerSec injects the CentOS-7267-style NFS bug of §7.2: the
	// effective per-byte cost grows by this factor each second, so the
	// server gradually becomes overloaded and stalls its writers.
	LeakPerSec float64
	// CPUHz converts cycles to time for accounting.
	CPUHz float64

	leakStart time.Duration
	leaking   bool
	consumed  int64
}

// NewServer builds a terminating server.
func NewServer(id core.ElementID, capacityBps float64, cyclesPerByte float64) *Server {
	return &Server{
		Base:            NewBase(id, capacityBps),
		CyclesPerByte:   cyclesPerByte,
		CyclesPerPacket: 3000,
		MembusFactor:    4.0,
		CPUHz:           DefaultCPUHz,
	}
}

// NewNFSServer returns a disk-backed log server.
func NewNFSServer(id core.ElementID, capacityBps, diskBps float64) *Server {
	s := NewServer(id, capacityBps, 15)
	s.DiskBps = diskBps
	return s
}

// InjectLeak starts the memory-leak bug at virtual time now.
func (s *Server) InjectLeak(now time.Duration, leakPerSec float64) {
	s.leaking = true
	s.leakStart = now
	s.LeakPerSec = leakPerSec
}

// HealLeak stops the bug (VM reloaded with fixed software).
func (s *Server) HealLeak() { s.leaking = false }

// ConsumedBytes returns cumulative processed bytes.
func (s *Server) ConsumedBytes() int64 { return s.consumed }

// effCyclesPerByte applies the leak-induced slowdown.
func (s *Server) effCyclesPerByte(now time.Duration) float64 {
	if !s.leaking || s.LeakPerSec <= 0 {
		return s.CyclesPerByte
	}
	elapsed := (now - s.leakStart).Seconds()
	if elapsed < 0 {
		elapsed = 0
	}
	return s.CyclesPerByte * (1 + s.LeakPerSec*elapsed)
}

// CPUDemand implements machine.App.
func (s *Server) CPUDemand(dt time.Duration) float64 {
	return s.CapacityBps / 8 * dt.Seconds() * s.effCyclesPerByte(0) * 2
}

// Step implements machine.App.
func (s *Server) Step(ctx *machine.AppContext) {
	sock := ctx.VM.Socket
	cpb := s.effCyclesPerByte(ctx.Now)

	inAvail := sock.RxAvailable()
	cpuBytes := ctx.VCPU.BytesFor(cpb)
	busBytes := ctx.Bus.WireBytesFor(s.MembusFactor)
	if busBytes < cpuBytes {
		cpuBytes = busBytes
	}
	moved := inAvail
	if cpuBytes < moved {
		moved = cpuBytes
	}
	if s.DiskBps > 0 {
		// DiskBps is bytes/s of storage bandwidth.
		if disk := int64(s.DiskBps * ctx.Dt.Seconds()); disk < moved {
			moved = disk
		}
	}
	if moved < 0 {
		moved = 0
	}

	var pkts int
	var readBytes int64
	if moved > 0 {
		for _, b := range sock.Read(moved) {
			pkts += b.Packets
			readBytes += b.Bytes
			if s.Hist != nil {
				s.Hist.ObserveN(b.AvgSize(), b.Packets)
			}
		}
	}
	cycles := float64(readBytes)*cpb + float64(pkts)*s.CyclesPerPacket
	ctx.VCPU.SpendCycles(cycles)
	ctx.Bus.SpendWireBytes(readBytes, s.MembusFactor)
	s.consumed += readBytes

	// Disk or CPU gating is processing, not output blocking (no network
	// output exists); only true input starvation is ReadBlocked.
	inLimited := readBytes >= inAvail && inAvail <= cpuBytes && moved < cpuBytes
	if inAvail == 0 {
		inLimited = true
	}
	instr := s.Account(TickIO{
		Dt:        ctx.Dt,
		InBytes:   readBytes,
		ProcNS:    int64(cycles / s.CPUHz * 1e9),
		InLimited: inLimited,
		InPackets: pkts,
	})
	ctx.VCPU.SpendCycles(instr)
}
