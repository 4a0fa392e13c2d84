package experiments

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"perfsight/internal/agent"
	"perfsight/internal/core"
	"perfsight/internal/middlebox"
)

// Fig9Result reproduces Figure 9: the response time between the agent and
// each kind of component. Network-device statistics (TUN, pNIC) travel
// through device-file reads costing ~2 ms on the paper's testbed; every
// other channel completes well under 500 µs; the agent-controller round
// trip rides TCP.
type Fig9Result struct {
	// Times maps channel name to the median of N round trips.
	Times map[string]time.Duration
	// Order lists channels in the paper's x-axis order.
	Order []string
}

// ShapeCorrect checks the paper's ordering: device-file channels are the
// slowest element channels by a wide margin, and everything else stays in
// the sub-millisecond class. (The non-device bound is 1 ms rather than the
// paper's 500 µs reading because file and pipe I/O jitter on loaded CI
// machines; the ordering is the claim.)
func (r *Fig9Result) ShapeCorrect() bool {
	tun, pnic := r.Times["agent-tun"], r.Times["agent-pnic"]
	for name, d := range r.Times {
		switch name {
		case "agent-tun", "agent-pnic", "agent-controller":
			continue
		default:
			if d >= time.Millisecond {
				return false
			}
			if 2*d >= tun || 2*d >= pnic {
				return false
			}
		}
	}
	return tun >= time.Millisecond && pnic >= time.Millisecond
}

// String renders the measured channel latencies.
func (r *Fig9Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 9: response time between agent and other components\n")
	for _, name := range r.Order {
		fmt.Fprintf(&b, "%-18s %10.0f us\n", name, float64(r.Times[name])/1e3)
	}
	return b.String()
}

// RunFig9 measures each collection channel's round-trip time with the
// calibrated per-channel costs, plus the real TCP agent-controller path.
func RunFig9(rounds int) (*Fig9Result, error) {
	if rounds <= 0 {
		rounds = 21
	}
	l := NewLab(time.Millisecond)
	l.SetAgentOptions(agent.BuildOptions{
		UseMboxSockets: true,
		Latencies:      agent.CalibratedLatencies(),
	})
	l.DefaultMachine("m0")
	sink := middlebox.NewSink("m0/vm0/app", 1e9)
	l.C.PlaceVM("m0", "vm0", 1.0, 1e9, sink)
	if err := l.BuildAgents(); err != nil {
		return nil, err
	}
	defer l.Close()
	a := l.Agents["m0"]

	measure := func(ids ...core.ElementID) (time.Duration, error) {
		var samples []time.Duration
		for i := 0; i < rounds; i++ {
			start := time.Now()
			if _, err := a.Fetch(ids, nil, false); err != nil {
				return 0, err
			}
			samples = append(samples, time.Since(start))
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
		return samples[len(samples)/2], nil
	}

	res := &Fig9Result{Times: make(map[string]time.Duration)}
	channels := []struct {
		name string
		id   core.ElementID
	}{
		{"agent-qemu", "m0/vm0/qemu"},
		{"agent-backlog", "m0/cpu0/backlog"},
		{"agent-vm", "m0/vm0/app"},      // middlebox stats socket
		{"agent-vswitch", "m0/vswitch"}, // OVS control channel
		{"agent-pnic", "m0/pnic"},       // device file
		{"agent-tun", "m0/vm0/tun"},     // device file
	}
	for _, ch := range channels {
		d, err := measure(ch.id)
		if err != nil {
			return nil, fmt.Errorf("fig9 %s: %w", ch.name, err)
		}
		res.Times[ch.name] = d
		res.Order = append(res.Order, ch.name)
	}

	// Agent-controller over real TCP on loopback.
	client, err := l.ServeTCP("m0")
	if err != nil {
		return nil, err
	}
	var samples []time.Duration
	for i := 0; i < rounds; i++ {
		d, err := client.Ping()
		if err != nil {
			return nil, fmt.Errorf("fig9 controller ping: %w", err)
		}
		samples = append(samples, d)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	res.Times["agent-controller"] = samples[len(samples)/2]
	res.Order = append(res.Order, "agent-controller")
	return res, nil
}
