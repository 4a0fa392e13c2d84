package agent

import (
	"fmt"
	"os"
	"path/filepath"

	"perfsight/internal/core"
	"perfsight/internal/dataplane"
	"perfsight/internal/machine"
	"perfsight/internal/procfs"
)

// Latencies carries per-channel emulated collection costs. The Calibrated
// set reproduces Figure 9's testbed measurements: device-file reads for
// network devices cost ~2 ms, everything else completes well under 500 µs.
type Latencies struct {
	NetDev  Latency
	Softnet Latency
	QEMULog Latency
	Mbox    Latency
	OVS     Latency
	Direct  Latency
}

// CalibratedLatencies mirrors the paper's measured per-channel costs.
func CalibratedLatencies() Latencies {
	return Latencies{
		NetDev:  Latency(2e6),   // 2 ms: TUN/pNIC device files
		Softnet: Latency(120e3), // 120 µs: /proc read
		QEMULog: Latency(250e3), // 250 µs: log append + tail
		Mbox:    Latency(180e3), // 180 µs: socket round trip
		OVS:     Latency(300e3), // 300 µs: control channel
		Direct:  Latency(80e3),  // 80 µs: in-kernel API
	}
}

// BuildOptions configures agent construction.
type BuildOptions struct {
	// FS is the virtual /proc tree; a fresh one is created if nil.
	FS *procfs.FS
	// QEMULogDir receives per-VM QEMU counter logs; if "", a temp dir
	// that Agent.Close removes.
	QEMULogDir string
	// UseMboxSockets serves middlebox stats over stats sockets instead of
	// the direct API.
	UseMboxSockets bool
	// Latencies emulates per-channel costs (zero = full speed).
	Latencies Latencies
	// QEMULogExtra, when non-nil, adds a runtime-settable delay to every
	// QEMU log-tail fetch (the chaos layer's slow-disk injection point).
	QEMULogExtra *LatencyVar
	// Clock supplies record timestamps (nil = wall clock).
	Clock func() int64
	// FlowStats selects how vswitch adapters report per-flow traffic. The
	// zero value is FlowStatsExact — the legacy per-rule enumeration —
	// so existing construction sites behave as before; the agent binary
	// defaults its -flow-stats flag to sketch.
	FlowStats FlowStatsMode
	// Sketch sizes the flow summary when FlowStats is FlowStatsSketch
	// (zero fields take the dataplane defaults).
	Sketch dataplane.SketchConfig
}

// Build assembles the agent for a machine, mounting the virtual /proc
// files its kernel elements publish and wiring one adapter per element
// through that element's native channel. Rebuild after placement changes.
func Build(m *machine.Machine, opts BuildOptions) (*Agent, error) {
	fs := opts.FS
	if fs == nil {
		fs = procfs.New()
	}
	a := New(m.ID(), opts.Clock)
	logDir := opts.QEMULogDir
	if logDir == "" {
		d, err := os.MkdirTemp("", "perfsight-qemu-")
		if err != nil {
			return nil, fmt.Errorf("agent: build %s: %w", m.ID(), err)
		}
		logDir, a.tempLogDir = d, d
	}
	lat := opts.Latencies
	stack := m.Stack

	// Host net devices: pNIC (eth0) and each VM's TUN (tap-<vm>) publish
	// into one /proc/net/dev file, read back by NetDev adapters.
	hostDevPath := "/proc/net/dev"
	pnic := stack.PNic
	vmIDs := m.VMs()
	fs.Mount(hostDevPath, func() []byte {
		devs := []procfs.NetDevStats{netdevFromRecord("eth0", pnic.Snapshot(0))}
		for _, id := range m.VMs() {
			if vm := m.VM(id); vm != nil {
				devs = append(devs, netdevFromRecord("tap-"+string(id), vm.Stack.Tun.Snapshot(0)))
			}
		}
		return procfs.FormatNetDev(devs)
	})
	a.Register(&NetDevAdapter{
		ID: pnic.ID(), DevKind: core.KindPNIC, FS: fs, Path: hostDevPath,
		Dev: "eth0", CapBps: pnic.RxCapBps, Latency: lat.NetDev,
	})

	// Host softnet file: one row per pCPU backlog queue.
	softnetPath := "/proc/net/softnet_stat"
	queues := stack.Backlogs.Queues()
	fs.Mount(softnetPath, func() []byte {
		rows := make([]procfs.SoftnetStats, len(queues))
		for i, q := range queues {
			rec := q.Snapshot(0)
			rows[i] = procfs.SoftnetStats{
				Processed: uint64(rec.GetOr(core.AttrTxPackets, 0)),
				Dropped:   uint64(rec.GetOr(core.AttrDropPackets, 0)),
				Queued:    uint64(rec.GetOr(core.AttrQueueLen, 0)),
			}
		}
		return procfs.FormatSoftnet(rows)
	})
	for i, q := range queues {
		a.Register(&SoftnetAdapter{
			ID: q.ID(), FS: fs, Path: softnetPath, Row: i,
			Cap: m.Cfg.Stack.BacklogCap, QueueKind: core.KindPCPUBacklog, Latency: lat.Softnet,
		})
	}

	// Driver and NAPI are unbuffered kernel routines: generic API.
	a.Register(&DirectAdapter{E: stack.Driver, Latency: lat.Direct})
	a.Register(&DirectAdapter{E: stack.Napi, Latency: lat.Direct})

	// Virtual switch over its control channel. In sketch mode the switch
	// feeds its datapath into a bounded-memory flow summary, the adapter
	// fetches it via DUMP-SKETCH, and the agent advertises the capability
	// (old controllers still negotiate down to legacy enumeration).
	if opts.FlowStats == FlowStatsSketch {
		stack.VSwitch.EnableFlowSketch(opts.Sketch)
		a.AllowSketch = true
	}
	ovs := &OVSChannelServer{VS: stack.VSwitch}
	a.Register(&OVSAdapter{ID: stack.VSwitch.ID(), Dial: ovs.PipeDialer(), Latency: lat.OVS, Mode: opts.FlowStats})

	// Per-VM elements.
	for _, id := range vmIDs {
		vm := m.VM(id)
		if vm == nil {
			continue
		}
		vs := vm.Stack

		// TUN through the host device file.
		a.Register(&NetDevAdapter{
			ID: vs.Tun.ID(), DevKind: core.KindTUN, FS: fs, Path: hostDevPath,
			Dev: "tap-" + string(id), Latency: lat.NetDev,
		})

		// QEMU through its counter log.
		a.Register(&QEMULogAdapter{
			Log:     &QEMULog{E: vs.Qemu, Path: filepath.Join(logDir, fmt.Sprintf("qemu-%s.log", id))},
			Latency: lat.QEMULog,
			Extra:   opts.QEMULogExtra,
		})

		// Guest kernel elements: vNIC via the guest's device file, backlog
		// via the guest softnet file, the rest via the generic API.
		guestDev := fmt.Sprintf("/vm/%s/proc/net/dev", id)
		vnic := vs.VNic
		fs.Mount(guestDev, func() []byte {
			return procfs.FormatNetDev([]procfs.NetDevStats{netdevFromRecord("eth0", vnic.Snapshot(0))})
		})
		a.Register(&NetDevAdapter{
			ID: vnic.ID(), DevKind: core.KindVNIC, FS: fs, Path: guestDev,
			Dev: "eth0", CapBps: vnic.RxCapBps, Latency: lat.NetDev,
		})

		guestSoftnet := fmt.Sprintf("/vm/%s/proc/net/softnet_stat", id)
		gq := vs.GuestQueue
		fs.Mount(guestSoftnet, func() []byte {
			rec := gq.Snapshot(0)
			return procfs.FormatSoftnet([]procfs.SoftnetStats{{
				Processed: uint64(rec.GetOr(core.AttrTxPackets, 0)),
				Dropped:   uint64(rec.GetOr(core.AttrDropPackets, 0)),
				Queued:    uint64(rec.GetOr(core.AttrQueueLen, 0)),
			}})
		})
		a.Register(&SoftnetAdapter{
			ID: gq.ID(), FS: fs, Path: guestSoftnet, Row: 0,
			Cap: m.Cfg.Stack.GuestBacklog, QueueKind: core.KindVCPUBacklog, Latency: lat.Softnet,
		})

		a.Register(&DirectAdapter{E: vs.Driver, Latency: lat.Direct})
		a.Register(&DirectAdapter{E: vs.GuestNapi, Latency: lat.Direct})
		a.Register(&DirectAdapter{E: vs.Socket, Latency: lat.Direct})

		// Middlebox software: socket channel or direct.
		for _, app := range vm.Apps {
			el := appAsElement{app}
			if opts.UseMboxSockets {
				srv := &StatsServer{E: el}
				a.Register(&MboxSocketAdapter{ID: app.ID(), Dial: srv.PipeDialer(), Latency: lat.Mbox})
			} else {
				a.Register(&DirectAdapter{E: el, Latency: lat.Mbox})
			}
		}
	}

	// Machine utilization gauge.
	a.Register(&DirectAdapter{E: m.HostElement(), Latency: lat.Direct})
	return a, nil
}

// appAsElement adapts a machine.App to core.Element.
type appAsElement struct{ a machine.App }

func (e appAsElement) ID() core.ElementID            { return e.a.ID() }
func (e appAsElement) Kind() core.ElementKind        { return core.KindMiddlebox }
func (e appAsElement) Snapshot(ts int64) core.Record { return e.a.Snapshot(ts) }

// netdevFromRecord converts an element snapshot into device-file counters.
func netdevFromRecord(name string, rec core.Record) procfs.NetDevStats {
	return procfs.NetDevStats{
		Name:      name,
		RxBytes:   uint64(rec.GetOr(core.AttrRxBytes, 0)),
		RxPackets: uint64(rec.GetOr(core.AttrRxPackets, 0)),
		RxDropped: uint64(rec.GetOr(core.AttrDropPackets, 0)),
		TxBytes:   uint64(rec.GetOr(core.AttrTxBytes, 0)),
		TxPackets: uint64(rec.GetOr(core.AttrTxPackets, 0)),
		QueueLen:  int(rec.GetOr(core.AttrQueueLen, 0)),
		QueueCap:  int(rec.GetOr(core.AttrQueueCap, 0)),
	}
}
