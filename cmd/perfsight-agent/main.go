// Command perfsight-agent runs a PerfSight agent for one (simulated)
// physical server and serves statistics to controllers over TCP.
//
// The agent hosts a live software dataplane: a testbed-like machine with a
// configurable number of middlebox VMs forwarding client traffic, advanced
// in real time. Controllers (cmd/perfsight-controller) connect with the
// wire protocol and query any element. A fault can be injected at runtime
// via -fault to give diagnosers something to find:
//
//	perfsight-agent -listen :7700 -machine m0 -vms 4 -fault membw@30s
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"strconv"
	"strings"
	"time"

	"perfsight/internal/agent"
	"perfsight/internal/core"
	"perfsight/internal/dataplane"
	"perfsight/internal/experiments"
	"perfsight/internal/machine"
	"perfsight/internal/middlebox"
	"perfsight/internal/telemetry"
	"perfsight/internal/wire"
)

func main() {
	listen := flag.String("listen", ":7700", "TCP address to serve controllers on")
	machineID := flag.String("machine", "m0", "machine identity")
	vms := flag.Int("vms", 4, "middlebox VMs to host")
	rate := flag.Float64("rate-mbps", 200, "offered client load per VM, Mbit/s")
	fault := flag.String("fault", "", "inject a fault: membw@DUR, cpu@DUR, vmcpu@DUR, rxflood@DUR (e.g. membw@30s)")
	telemetryAddr := flag.String("telemetry", "", "serve self-metrics (/metrics, /healthz) on this address, e.g. :9100 (empty = disabled)")
	readTimeout := flag.Duration("read-timeout", 2*time.Minute, "close controller connections idle beyond this, so half-open peers cannot park handler goroutines (0 = never)")
	maxConns := flag.Int("max-conns", 64, "maximum concurrent controller connections; extras are refused at accept (0 = unlimited)")
	codec := flag.String("codec", wire.CodecV2, "wire codecs offered to controllers: v2 (binary, with JSON fallback per connection) or json (JSON only)")
	delta := flag.Bool("delta", true, "permit delta-encoded responses on v2 connections that request them (changed attrs only)")
	push := flag.Bool("push", true, "grant push streaming to controllers that request it (delta frames at adaptive cadence; controllers without it keep pulling)")
	spansFlag := flag.Bool("spans", true, "grant trace spans to v2 controllers that request them (per-channel gather spans piggybacked on responses and push frames)")
	cadenceMin := flag.Duration("cadence-min", agent.DefaultCadenceMin, "fastest push cadence this agent will stream at, whatever the controller asks for")
	cadenceMax := flag.Duration("cadence-max", agent.DefaultCadenceMax, "slowest push cadence the stream decays to while counters are quiescent")
	pprofFlag := flag.Bool("pprof", false, "expose Go profiling endpoints (/debug/pprof/*) on the -telemetry address")
	flowStats := flag.String("flow-stats", "sketch", "per-flow statistics mode: sketch (bounded-memory count-min + top-k summary) or exact (legacy per-rule enumeration, O(flows) attrs)")
	sketchWidth := flag.Int("sketch-width", 0, "count-min sketch counters per row (0 = default 4096; error bound ε = e/width)")
	sketchDepth := flag.Int("sketch-depth", 0, "count-min sketch rows (0 = default 4; confidence 1−e^−depth)")
	sketchTopK := flag.Int("sketch-topk", 0, "heavy-hitter table capacity (0 = default 64)")
	flag.Parse()
	if *codec != wire.CodecV2 && *codec != wire.CodecJSON {
		log.Fatalf("bad -codec %q (want v2 or json)", *codec)
	}
	flowMode, err := agent.FlowStatsModeFromString(*flowStats)
	if err != nil {
		log.Fatalf("bad -flow-stats: %v", err)
	}

	mid := core.MachineID(*machineID)
	l := experiments.NewLab(time.Millisecond)
	m := l.C.AddMachine(machine.DefaultConfig(mid))
	proxyCost := middlebox.NewProxy("", 0, nil).Cfg // the stock proxy's per-byte and per-packet cycles
	for i := 0; i < *vms; i++ {
		l.AddProxyVM(experiments.ProxyVM{
			Machine: mid, VM: core.VMID(fmt.Sprintf("vm%d", i)),
			Flows: fmt.Sprintf("p%d", i), Hosts: fmt.Sprint(i),
			Cost: proxyCost, Inflows: 4, RateBps: *rate * 1e6 / 4,
		})
	}

	if *fault != "" {
		kind, after, err := parseFault(*fault)
		if err != nil {
			log.Fatalf("bad -fault: %v", err)
		}
		go func() {
			time.Sleep(after)
			injectFault(m, kind)
			log.Printf("injected fault %q", kind)
		}()
	}

	a, err := agent.Build(m, agent.BuildOptions{
		Clock:     l.C.NowNS,
		FlowStats: flowMode,
		Sketch: dataplane.SketchConfig{
			Width: *sketchWidth,
			Depth: *sketchDepth,
			TopK:  *sketchTopK,
		},
	})
	if err != nil {
		log.Fatalf("build agent: %v", err)
	}
	a.ReadTimeout = *readTimeout
	a.MaxConns = *maxConns
	a.Codec = *codec
	a.AllowDelta = *delta
	a.AllowStream = *push
	a.AllowSpans = *spansFlag
	a.CadenceMin = *cadenceMin
	a.CadenceMax = *cadenceMax

	if *telemetryAddr != "" {
		reg := telemetry.NewRegistry()
		a.EnableTelemetry(reg)
		l.C.EnableTelemetry(reg)
		l.C.EnableDropTracing(mid, 4096)
		started := time.Now()
		mux := telemetry.NewMux(reg, func() telemetry.Health {
			return telemetry.Health{
				Component: "agent",
				Identity:  *machineID,
				Elements:  len(a.Elements()),
				UptimeSec: time.Since(started).Seconds(),
				Extra: map[string]float64{
					"schema_ext_attrs":    float64(core.ExtAttrCount()),
					"schema_ext_rejected": float64(core.ExtRejected()),
				},
			}
		})
		if *pprofFlag {
			telemetry.RegisterPprof(mux)
		}
		taddr, err := telemetry.ServeHandler(*telemetryAddr, mux)
		if err != nil {
			log.Fatalf("telemetry: %v", err)
		}
		log.Printf("telemetry on http://%s/metrics", taddr)
	} else if *pprofFlag {
		log.Printf("-pprof ignored: set -telemetry to expose /debug/pprof")
	}

	// Advance the dataplane in real time.
	go func() {
		const step = 10 * time.Millisecond
		tick := time.NewTicker(step)
		defer tick.Stop()
		for range tick.C {
			l.C.Run(step)
		}
	}()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	log.Printf("perfsight-agent %s serving %d elements on %s", mid, len(a.Elements()), ln.Addr())
	err = a.Serve(ln) // returns only once the listener fails
	a.Close()
	log.Fatalf("serve: %v", err)
}

func parseFault(s string) (kind string, after time.Duration, err error) {
	kind, rest, ok := strings.Cut(s, "@")
	if !ok {
		return kind, 0, nil
	}
	d, err := time.ParseDuration(rest)
	return kind, d, err
}

func injectFault(m *machine.Machine, kind string) {
	switch kind {
	case "membw":
		m.AddHog(&machine.Hog{Name: "membw", Kind: machine.HogMem, MemDemandBps: 26e9, CyclesPerByte: 0.33})
	case "cpu":
		for i := 0; i < 6; i++ {
			m.AddHog(&machine.Hog{Name: "cpu" + strconv.Itoa(i), Kind: machine.HogCPU, CPUDemandCores: 2})
		}
	case "vmcpu":
		if vms := m.VMs(); len(vms) > 0 {
			m.AddHog(&machine.Hog{Name: "vmcpu", Kind: machine.HogCPU, VM: vms[0], CPUDemandCores: 4})
		}
	case "memspace":
		m.AddHog(&machine.Hog{Name: "leak", Kind: machine.HogMemSpace, AllocBytes: 16<<30 - 256<<20})
	default:
		log.Printf("unknown fault %q ignored", kind)
	}
}
