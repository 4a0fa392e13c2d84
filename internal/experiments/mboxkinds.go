package experiments

import (
	"fmt"
	"strings"
	"time"

	"perfsight/internal/cluster"
	"perfsight/internal/core"
	"perfsight/internal/diagnosis"
	"perfsight/internal/middlebox"
	"perfsight/internal/stream"
)

// MboxKindsResult reports the two new middlebox-kind experiments: the IDS
// capture-ring loss diagnosed as a middlebox-located VM bottleneck, and
// the warming SmartCache thinning its output toward 1-MaxHitRatio.
type MboxKindsResult struct {
	// IDS experiment.
	IDSTopLocation diagnosis.DropLocation
	IDSInferred    diagnosis.Resource
	IDSTopElement  core.ElementID
	IDSDropPkts    float64
	IDSOK          bool

	// SmartCache experiment.
	CacheHitRatio float64
	CacheOutRatio float64 // interval tx/rx byte ratio after warming
	CacheWantOut  float64 // 1 - MaxHitRatio
	CacheOK       bool
}

// AllCorrect reports whether both experiments met their assertions.
func (r *MboxKindsResult) AllCorrect() bool { return r.IDSOK && r.CacheOK }

// String renders the two verdicts.
func (r *MboxKindsResult) String() string {
	var b strings.Builder
	b.WriteString("New middlebox kinds under diagnosis\n")
	fmt.Fprintf(&b, "IDS:        location %s, inferred %s, top element %s, ring drops %.0f pkts (ok=%v)\n",
		r.IDSTopLocation, r.IDSInferred, r.IDSTopElement, r.IDSDropPkts, r.IDSOK)
	fmt.Fprintf(&b, "SmartCache: hit ratio %.2f, out/in %.3f (want ~%.2f) (ok=%v)\n",
		r.CacheHitRatio, r.CacheOutRatio, r.CacheWantOut, r.CacheOK)
	return b.String()
}

const mboxTenant = core.TenantID("t-mbox")

// RunMboxKinds runs both new-kind scenarios and asserts the paper's
// pipeline covers them: Algorithm 1 must locate the IDS's capture-ring
// loss at the middlebox itself (not the virtualization stack) and the
// rule book must blame the VM's own allocation; the SmartCache's standard
// in/out counters must expose its warming hit ratio to the controller.
func RunMboxKinds() (*MboxKindsResult, error) {
	res := &MboxKindsResult{}
	if err := runIDSExperiment(res); err != nil {
		return nil, fmt.Errorf("ids: %w", err)
	}
	if err := runSmartCacheExperiment(res); err != nil {
		return nil, fmt.Errorf("smartcache: %w", err)
	}
	return res, nil
}

// runIDSExperiment: a tap-style IDS inspects a 400 Mbps stream with an
// expensive per-byte signature set. The guest kernel keeps delivering
// (kernel RX has vCPU priority, and the tap drains the socket), so every
// loss lands in the IDS's own capture ring — drops the stack's device
// counters never see, but the app's drop counters do.
func runIDSExperiment(res *MboxKindsResult) error {
	l := NewLab(time.Millisecond)
	defer l.Close()
	l.DefaultMachine("m0")
	srv := l.C.AddHost("srv", 0)
	_ = srv
	out := l.C.Connect("f-out", cluster.VMEndpoint("m0", "vm-ids"), cluster.HostEndpoint("srv"), stream.Config{})
	// ~2000 cycles/byte: deep inspection that a single vCPU cannot keep
	// up with at 400 Mbps, so the ring tail-drops.
	ids := middlebox.NewIDSWithConfig("m0/vm-ids/app", 1e9,
		middlebox.IDSConfig{CyclesPerByte: 2000}, middlebox.ConnOutput{C: out})
	l.C.PlaceVM("m0", "vm-ids", 1.0, 1e9, ids)
	client := l.C.AddHost("client", 0)
	in := l.C.Connect("f-in", cluster.HostEndpoint("client"), cluster.VMEndpoint("m0", "vm-ids"), stream.Config{})
	client.AddSource(in, 400e6)
	if err := l.BuildAgents(); err != nil {
		return err
	}
	l.C.AssignStack(mboxTenant, "m0")
	l.C.AssignVM(mboxTenant, "m0", "vm-ids")

	l.Run(2 * time.Second)
	rep, err := diagnosis.FindContentionAndBottleneck(l.Ctl, mboxTenant, 3*time.Second)
	if err != nil {
		return err
	}
	res.IDSTopLocation = rep.TopLocation
	res.IDSInferred = rep.Inferred
	if len(rep.Ranked) > 0 {
		res.IDSTopElement = rep.Ranked[0].Element
		res.IDSDropPkts = rep.Ranked[0].Loss
	}
	res.IDSOK = rep.TopLocation == diagnosis.LocMiddlebox &&
		rep.Inferred == diagnosis.ResourceVMBottleneck &&
		res.IDSTopElement == "m0/vm-ids/app" &&
		res.IDSDropPkts > 0
	return nil
}

// runSmartCacheExperiment: a redundancy-eliminating cache warms past its
// warmup horizon, after which its forwarded volume settles at
// 1-MaxHitRatio of its intake. Both the standard in/out byte counters and the
// cache_* extension attributes travel the normal agent channel, so the
// controller measures the warming from intervals alone.
func runSmartCacheExperiment(res *MboxKindsResult) error {
	l := NewLab(time.Millisecond)
	defer l.Close()
	l.DefaultMachine("m0")
	l.C.AddHost("srv", 0)
	out := l.C.Connect("f-out", cluster.VMEndpoint("m0", "vm-sc"), cluster.HostEndpoint("srv"), stream.Config{})
	sc := middlebox.NewSmartCache("m0/vm-sc/app", 1e9, middlebox.ConnOutput{C: out})
	l.C.PlaceVM("m0", "vm-sc", 1.0, 1e9, sc)
	client := l.C.AddHost("client", 0)
	in := l.C.Connect("f-in", cluster.HostEndpoint("client"), cluster.VMEndpoint("m0", "vm-sc"), stream.Config{})
	client.AddSource(in, 400e6)
	if err := l.BuildAgents(); err != nil {
		return err
	}
	l.C.AssignStack(mboxTenant, "m0")
	l.C.AssignVM(mboxTenant, "m0", "vm-sc")

	// 2s at 400 Mbps is ~100 MB seen — far past the 8 MB warmup horizon.
	l.Run(2 * time.Second)
	const appID = core.ElementID("m0/vm-sc/app")
	ivs, err := l.Ctl.SampleInterval(mboxTenant, []core.ElementID{appID}, 2*time.Second)
	if err != nil {
		return err
	}
	iv, ok := ivs[appID]
	if !ok {
		return fmt.Errorf("no interval for %s", appID)
	}
	inDelta := iv.Delta(core.AttrInBytes)
	outDelta := iv.Delta(core.AttrOutBytes)
	if inDelta <= 0 {
		return fmt.Errorf("cache saw no traffic in the interval (in_bytes delta %v)", inDelta)
	}
	res.CacheOutRatio = outDelta / inDelta
	// The hit-ratio gauge travels the normal agent channel as an
	// extension attribute; compare the controller's copy to the model's.
	res.CacheHitRatio = iv.Cur.GetOr(core.AttrIDFor("cache_hit_ratio"), -1)
	res.CacheWantOut = 1 - sc.Cfg.MaxHitRatio
	res.CacheOK = res.CacheHitRatio == sc.Cfg.MaxHitRatio &&
		res.CacheOutRatio > res.CacheWantOut-0.05 && res.CacheOutRatio < res.CacheWantOut+0.05
	return nil
}
