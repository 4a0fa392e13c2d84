package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"perfsight/internal/agent"
	"perfsight/internal/cluster"
	"perfsight/internal/core"
	"perfsight/internal/dataplane"
	"perfsight/internal/machine"
	"perfsight/internal/middlebox"
	"perfsight/internal/procfs"
	"perfsight/internal/stream"
)

// machineTenant is the tenant owning one machine's stack and VMs. One
// tenant per machine keeps Algorithm 1's evidence (host CPU and memory-bus
// gauges) to a single machine.
func machineTenant(mid core.MachineID) core.TenantID { return core.TenantID("t-" + string(mid)) }

// lab is a simulated fleet with a real agent per machine: the channels
// agent.Build wires (virtual /proc files, the OVS control channel, QEMU
// counter logs on disk, middlebox stats sockets) and sketch flow
// statistics, the agent binary's defaults.
type lab struct {
	c      *cluster.Cluster
	mids   []core.MachineID
	agents map[core.MachineID]*agent.Agent
	fs     map[core.MachineID]*procfs.FS
	logDir string
}

// role is what a lab machine hosts.
type role int

const (
	// roleLoaded carries Figure 11's oversubscription shape: 3.4 Gbps
	// offered across sink VMs, which a memory hog turns into TUN drops.
	roleLoaded role = iota
	// roleLight carries 200 Mbps per sink VM.
	roleLight
	// roleChain hosts one tenant's middlebox chain, client → load balancer
	// → proxy → server, with a server too expensive per byte to keep up:
	// Algorithm 2's overloaded-server case, root cause the server.
	roleChain
)

// chainVMs are the chain machine's VMs in traversal order.
var chainVMs = []core.VMID{"vm-lb", "vm-px", "vm-srv"}

func appID(mid core.MachineID, vm core.VMID) core.ElementID {
	return core.ElementID(fmt.Sprintf("%s/%s/app", mid, vm))
}

// buildLab generates a fleet from the seed, one machine per role, machine
// i named m<i> and owned by machineTenant(m<i>). Sink machines get vms VMs
// of flows flows each; every flow's rate gets a seeded ±10 % spread.
func buildLab(seed uint64, roles []role, vms, flows int, scratch string) (*lab, error) {
	rng := rand.New(rand.NewSource(int64(seed)))
	logDir, err := os.MkdirTemp(scratch, "qemu-")
	if err != nil {
		return nil, fmt.Errorf("build lab: %w", err)
	}
	l := &lab{c: cluster.New(time.Millisecond), agents: map[core.MachineID]*agent.Agent{},
		fs: map[core.MachineID]*procfs.FS{}, logDir: logDir}
	for i, r := range roles {
		mid := core.MachineID(fmt.Sprintf("m%d", i))
		tid := machineTenant(mid)
		l.mids = append(l.mids, mid)
		l.c.AddMachine(machine.DefaultConfig(mid))
		if r == roleChain {
			l.placeChain(mid, tid)
			continue
		}
		perVM := 200e6
		if r == roleLoaded {
			perVM = 3.4e9 / float64(vms)
		}
		for v := 0; v < vms; v++ {
			vm := core.VMID(fmt.Sprintf("vm%d", v))
			l.c.PlaceVM(mid, vm, 1.0, 2e9, middlebox.NewSink(appID(mid, vm), 2e9))
			hn := fmt.Sprintf("h%d-%d", i, v)
			host := l.c.AddHost(hn, 0)
			for j := 0; j < flows; j++ {
				conn := l.c.Connect(dataplane.FlowID(fmt.Sprintf("f%d-%d-%d", i, v, j)),
					cluster.HostEndpoint(hn), cluster.VMEndpoint(mid, vm), stream.Config{})
				host.AddSource(conn, perVM/float64(flows)*(0.9+0.2*rng.Float64()))
			}
			l.c.AssignVM(tid, mid, vm)
		}
		l.c.AssignStack(tid, mid)
	}
	for _, mid := range l.mids {
		fs := procfs.New()
		dir := filepath.Join(logDir, string(mid))
		err := os.Mkdir(dir, 0o755)
		var a *agent.Agent
		if err == nil {
			a, err = agent.Build(l.c.Machine(mid), agent.BuildOptions{
				FS: fs, QEMULogDir: dir, UseMboxSockets: true,
				Clock: l.c.NowNS, FlowStats: agent.FlowStatsSketch,
			})
		}
		if err != nil {
			l.close()
			return nil, fmt.Errorf("build lab: %w", err)
		}
		a.AllowDelta, a.AllowStream, a.AllowSpans = true, true, true
		l.agents[mid], l.fs[mid] = a, fs
	}
	return l, nil
}

// placeChain deploys Figure 12's chain on one machine, all vNICs 100 Mbps,
// the client sending as fast as the chain accepts.
func (l *lab) placeChain(mid core.MachineID, tid core.TenantID) {
	const vnicBps = 100e6
	lb, px, srv := chainVMs[0], chainVMs[1], chainVMs[2]
	l.c.RmemPerConn = 212992
	l.c.PlaceVM(mid, srv, 1.0, vnicBps, middlebox.NewServer(appID(mid, srv), vnicBps, 600))
	toSrv := l.c.Connect(dataplane.FlowID(mid+"-px-srv"), cluster.VMEndpoint(mid, px), cluster.VMEndpoint(mid, srv), stream.Config{})
	l.c.PlaceVM(mid, px, 1.0, vnicBps, middlebox.NewProxy(appID(mid, px), vnicBps, middlebox.ConnOutput{C: toSrv}))
	toPx := l.c.Connect(dataplane.FlowID(mid+"-lb-px"), cluster.VMEndpoint(mid, lb), cluster.VMEndpoint(mid, px), stream.Config{})
	l.c.PlaceVM(mid, lb, 1.0, vnicBps, middlebox.NewLoadBalancer(appID(mid, lb), vnicBps, middlebox.ConnOutput{C: toPx}))
	client := l.c.AddHost(string(mid)+"-client", 0)
	in := l.c.Connect(dataplane.FlowID(mid+"-cl-lb"), cluster.HostEndpoint(string(mid)+"-client"), cluster.VMEndpoint(mid, lb), stream.Config{})
	client.AddSource(in, 0)
	l.c.AssignStack(tid, mid)
	for _, vm := range chainVMs {
		l.c.AssignVM(tid, mid, vm)
	}
	l.c.AddChain(tid, appID(mid, lb), appID(mid, px), appID(mid, srv))
}

func (l *lab) close() {
	l.c.Close()
	_ = os.RemoveAll(l.logDir) // scratch; a leftover directory is harmless
}

// memoryHog is Figure 11's interfering workload: streaming copies that
// take the memory bus from the datapath.
func memoryHog() *machine.Hog {
	return &machine.Hog{Name: "memvms", Kind: machine.HogMem, MemDemandBps: 23e9, CyclesPerByte: 0.33}
}
