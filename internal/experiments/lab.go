// Package experiments regenerates every table and figure of the paper's
// evaluation (§7) plus the motivating Figure 3. Each experiment is a
// scenario builder returning a typed result with a text renderer, shared
// by the benchmark harness (bench_test.go), the perfsight-lab binary, and
// the integration tests. EXPERIMENTS.md records paper-vs-measured values.
package experiments

import (
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"time"

	"perfsight/internal/agent"
	"perfsight/internal/cluster"
	"perfsight/internal/controller"
	"perfsight/internal/core"
	"perfsight/internal/dataplane"
	"perfsight/internal/machine"
)

// Lab couples a simulated cluster with PerfSight agents and a controller
// whose measurement windows advance virtual time.
type Lab struct {
	C      *cluster.Cluster
	Ctl    *controller.Controller
	Agents map[core.MachineID]*agent.Agent

	agentOpts agent.BuildOptions
	fleetVMs  int         // sink-fleet VMs placed so far (AddSinkFleet numbering)
	served    []io.Closer // ServeTCP listeners and clients
}

// NewLab builds an empty lab with the given tick.
func NewLab(dt time.Duration) *Lab {
	c := cluster.New(dt)
	ctl := controller.New(c.Topology())
	ctl.Wait = func(d time.Duration) { c.Run(d) }
	return &Lab{
		C:      c,
		Ctl:    ctl,
		Agents: make(map[core.MachineID]*agent.Agent),
	}
}

// SetAgentOptions overrides agent build options (e.g. socket-based
// middlebox channels, emulated channel latencies) for subsequent
// BuildAgents calls.
func (l *Lab) SetAgentOptions(opts agent.BuildOptions) { l.agentOpts = opts }

// BuildAgents (re)builds the agent for every machine and registers local
// clients with the controller. Call after placement changes.
func (l *Lab) BuildAgents() error {
	for _, mid := range l.C.Machines() {
		if err := l.RefreshAgent(mid); err != nil {
			return err
		}
	}
	return nil
}

// RefreshAgent rebuilds one machine's agent (after VM add/remove).
func (l *Lab) RefreshAgent(mid core.MachineID) error {
	m := l.C.Machine(mid)
	if m == nil {
		return fmt.Errorf("experiments: unknown machine %s", mid)
	}
	opts := l.agentOpts
	if opts.Clock == nil {
		opts.Clock = l.C.NowNS
	}
	a, err := agent.Build(m, opts)
	if err != nil {
		return err
	}
	if old := l.Agents[mid]; old != nil {
		old.Close()
	}
	l.Agents[mid] = a
	l.Ctl.RegisterAgent(mid, &controller.LocalClient{A: a})
	return nil
}

// finish ends a scenario builder: every machine gets its agent, or the
// lab is closed and the caller returns the error.
func (l *Lab) finish() error {
	err := l.BuildAgents()
	if err != nil {
		l.Close()
	}
	return err
}

// ServeTCP serves mid's agent on a loopback listener and returns a client
// for it; both live until Close. The caller registers the client with the
// controller if sweeps should travel the wire.
func (l *Lab) ServeTCP(mid core.MachineID) (*controller.TCPClient, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go l.Agents[mid].Serve(ln)
	client := controller.NewTCPClient(ln.Addr().String())
	l.served = append(l.served, client, ln)
	return client, nil
}

// Close ends the lab: ServeTCP's clients and listeners shut, the agents
// release their log files, channel connections and the log directories
// Build made for them, and the cluster's worker pool, if any, stops.
func (l *Lab) Close() {
	for _, c := range l.served {
		c.Close()
	}
	for _, a := range l.Agents {
		a.Close()
	}
	l.C.Close()
}

// DefaultMachine adds a paper-testbed machine (8 cores, 10 GbE).
func (l *Lab) DefaultMachine(id core.MachineID) *machine.Machine {
	return l.C.AddMachine(machine.DefaultConfig(id))
}

// Run advances virtual time.
func (l *Lab) Run(d time.Duration) { l.C.Run(d) }

// flowID shortens dataplane.FlowID construction in scenario builders.
func flowID(s string) dataplane.FlowID { return dataplane.FlowID(s) }

// flowMeter counts delivery/drop feedback for open-loop flows.
type flowMeter struct {
	deliveredPkts  atomic.Int64
	deliveredBytes atomic.Int64
	droppedPkts    atomic.Int64
}

// Delivered implements dataplane.Feedback.
func (f *flowMeter) Delivered(packets int, bytes int64) {
	f.deliveredPkts.Add(int64(packets))
	f.deliveredBytes.Add(bytes)
}

// Dropped implements dataplane.Feedback.
func (f *flowMeter) Dropped(packets int, bytes int64, where core.ElementID) {
	f.droppedPkts.Add(int64(packets))
}

// batch builds a raw wire batch of the given size on a flow.
func batch(flow string, bytes int64, pktSize int) dataplane.Batch {
	if pktSize <= 0 {
		pktSize = 1448
	}
	pkts := int((bytes + int64(pktSize) - 1) / int64(pktSize))
	return dataplane.Batch{Flow: dataplane.FlowID(flow), Packets: pkts, Bytes: bytes}
}
