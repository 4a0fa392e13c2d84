package experiments

import (
	"fmt"
	"strings"
	"time"

	"perfsight/internal/core"
	"perfsight/internal/machine"
)

// AblationRow compares a design choice enabled vs disabled on the metric
// that motivated it.
type AblationRow struct {
	Choice   string
	Metric   string
	With     float64
	Without  float64
	Expected string // what should happen without the mechanism
	Holds    bool   // the mechanism makes the documented difference
}

// AblationResult collects the DESIGN.md §5 design-choice ablations.
type AblationResult struct {
	Rows []AblationRow
}

// AllHold reports whether every ablation behaved as documented.
func (r *AblationResult) AllHold() bool {
	for _, row := range r.Rows {
		if !row.Holds {
			return false
		}
	}
	return len(r.Rows) > 0
}

// String renders the ablation table.
func (r *AblationResult) String() string {
	var b strings.Builder
	b.WriteString("Ablations: calibrated design choices vs the model without them\n")
	b.WriteString("choice                      metric                         with      without  holds\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-26s  %-28s %9.2f  %9.2f  %v\n",
			row.Choice, row.Metric, row.With, row.Without, row.Holds)
	}
	return b.String()
}

// RunAblations executes each ablation scenario twice.
func RunAblations() (*AblationResult, error) {
	res := &AblationResult{}

	// 1. Fair backlog admission (Fig 10): without it, tick phasing hands
	// the flood all the loss and the victim flow sails through unharmed.
	with, err := backlogVictimMbps(false)
	if err != nil {
		return nil, err
	}
	without, err := backlogVictimMbps(true)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, AblationRow{
		Choice:   "fair-backlog-admission",
		Metric:   "victim flow under flood, Mbps",
		With:     with,
		Without:  without,
		Expected: "without: the victim is artificially protected",
		Holds:    with < 0.5*without,
	})

	// 2. I/O-thread load inflation (Fig 8 phase 3): without it, fair-share
	// scheduling protects QEMU perfectly and CPU contention leaves no
	// TUN-drop symptom.
	dWith, err := cpuContentionTUNDrops(false)
	if err != nil {
		return nil, err
	}
	dWithout, err := cpuContentionTUNDrops(true)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, AblationRow{
		Choice:   "io-thread-load-inflation",
		Metric:   "TUN drops under CPU hogs",
		With:     dWith,
		Without:  dWithout,
		Expected: "without: no drop symptom to diagnose",
		Holds:    dWith > 10 && dWithout < dWith/5,
	})

	// 3. Guest burst scheduling (Fig 8 phase 5): a vCPU-dominating hog
	// makes the guest kernel and app run in scheduler-latency bursts;
	// without modelling that, the continuously-running guest flow-controls
	// its senders and an in-VM CPU hog leaves no TUN-drop symptom.
	mWith, err := vmHogTUNDrops(false)
	if err != nil {
		return nil, err
	}
	mWithout, err := vmHogTUNDrops(true)
	if err != nil {
		return nil, err
	}
	res.Rows = append(res.Rows, AblationRow{
		Choice:   "guest-burst-scheduling",
		Metric:   "TUN drops under in-VM hog",
		With:     mWith,
		Without:  mWithout,
		Expected: "without: far fewer drops reach the TUN",
		Holds:    mWith > 10 && mWithout < mWith/2,
	})

	return res, nil
}

// backlogVictimMbps reproduces the Fig 10 core and returns the victim
// flow's throughput during the flood.
func backlogVictimMbps(noFairAdmission bool) (float64, error) {
	cfg := machine.DefaultConfig("m0")
	cfg.Stack.Costs.NAPICyclesPerPkt = 9000
	cfg.Stack.NoFairBacklogAdmission = noFairAdmission
	l, err := NewBacklogFlood(cfg, "", nil)
	if err != nil {
		return 0, err
	}
	defer l.Close()

	l.Run(3 * time.Second)
	l.StartFlood()
	l.Run(2 * time.Second) // let the collapse settle
	before := l.Sink.ReceivedBytes()
	l.Run(2 * time.Second)
	return float64(l.Sink.ReceivedBytes()-before) * 8 / 2 / 1e6, nil
}

// fig8Core is one of Fig 8's middlebox VMs, vm-mb, alone on the testbed-era
// machine (virtio ring of 256, Linux 3.2 rmem) under its offered load.
func fig8Core(cfg machine.Config) (*Lab, *machine.Machine) {
	l := NewLab(time.Millisecond)
	l.C.RmemPerConn = 212992
	cfg.Stack.VNICRing = 256
	m := l.C.AddMachine(cfg)
	l.AddProxyVM(ProxyVM{Machine: "m0", VM: "vm-mb", Flows: "mb", Cost: thinLB, Inflows: 10, RateBps: 42e6})
	return l, m
}

// cpuContentionTUNDrops reproduces the Fig 8 CPU phase and returns the
// middlebox VMs' TUN drops over the fault window.
func cpuContentionTUNDrops(noInflation bool) (float64, error) {
	cfg := machine.DefaultConfig("m0")
	cfg.NoLoadInflation = noInflation
	l, m := fig8Core(cfg)
	defer l.Close()
	for i := 0; i < 6; i++ {
		hv := core.VMID(fmt.Sprintf("vm-t%d", i))
		l.C.PlaceVM("m0", hv, 1.0, 1e9)
	}

	l.Run(3 * time.Second)
	for i := 0; i < 6; i++ {
		m.AddHog(&machine.Hog{
			Name: fmt.Sprintf("cpu%d", i), Kind: machine.HogCPU,
			VM: core.VMID(fmt.Sprintf("vm-t%d", i)), CPUDemandCores: 2.0,
		})
	}
	before := m.VM("vm-mb").Stack.Tun.ES.Drop.Packets.Load()
	l.Run(6 * time.Second)
	return float64(m.VM("vm-mb").Stack.Tun.ES.Drop.Packets.Load() - before), nil
}

// vmHogTUNDrops reproduces the Fig 8 phase-5 core (a CPU hog inside a
// middlebox VM) and returns that VM's TUN drops during the fault.
func vmHogTUNDrops(noBursts bool) (float64, error) {
	cfg := machine.DefaultConfig("m0")
	cfg.NoGuestBurstScheduling = noBursts
	l, m := fig8Core(cfg)
	defer l.Close()

	l.Run(3 * time.Second)
	m.AddHog(&machine.Hog{Name: "vmhog", Kind: machine.HogCPU, VM: "vm-mb", CPUDemandCores: 4})
	before := m.VM("vm-mb").Stack.Tun.ES.Drop.Packets.Load()
	l.Run(6 * time.Second)
	return float64(m.VM("vm-mb").Stack.Tun.ES.Drop.Packets.Load() - before), nil
}
