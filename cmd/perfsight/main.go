// Command perfsight is the all-in-one operator demo: it deploys a canned
// scenario on the simulated testbed, lets it run, and prints what the
// PerfSight diagnosis applications conclude.
//
//	perfsight -scenario list
//	perfsight -scenario membw
//	perfsight -scenario chain
//
// The top subcommand polls a running agent's or controller's /metrics
// endpoint and renders a live self-metrics table:
//
//	perfsight top -endpoint http://localhost:9100/metrics -interval 1s
//
// The history, watch, and diag subcommands talk to a flight-recorder
// controller (perfsight-controller -monitor 2s -telemetry :9101):
//
//	perfsight history -endpoint http://localhost:9101 -element m0/vm0/app -attr drop_packets
//	perfsight watch -endpoint http://localhost:9101
//	perfsight diag -endpoint http://localhost:9101 -at 2026-08-05T12:00:00Z -window 3s
//
// The incidents subcommand lists the anomaly pipeline's correlated
// incidents, shows one incident's event timeline, or follows the live
// diagnosis-event stream:
//
//	perfsight incidents -endpoint http://localhost:9101
//	perfsight incidents -id 3
//	perfsight incidents -follow
//
// The flows subcommand ranks an element's per-flow traffic, heaviest
// first — from the bounded-memory flow_sketch summary when the agent
// runs -flow-stats=sketch (heavy hitters with exactness flags plus the
// ε·N bound for everything else), or from legacy rule_* enumeration:
//
//	perfsight flows -endpoint http://localhost:9101 -element m0/vswitch -k 10
//
// The trace subcommand lists the controller's recent queries with their
// structured status (error + failing stage) and renders one retained
// trace as an ASCII waterfall — controller stages plus the agent's
// skew-corrected per-channel gather spans:
//
//	perfsight trace -endpoint http://localhost:9101
//	perfsight trace -id 42
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"perfsight/internal/core"
	"perfsight/internal/diagnosis"
	"perfsight/internal/experiments"
	"perfsight/internal/machine"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// subcommands talk to a running agent or controller over HTTP.
var subcommands = map[string]func(args []string){
	"top": runTop, "history": runHistory, "watch": runWatch, "diag": runDiag,
	"incidents": runIncidents, "flows": runFlows, "trace": runTrace,
}

// demos narrate four of the fault table's rows step by step, with their
// own rates and warm-ups; every other row runs through runFault.
var demos = map[string]func(w io.Writer) error{
	"membw": runMembw, "backlog": runBacklog, "bottleneck": runBottleneck, "chain": runChain,
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) > 0 {
		if sub, ok := subcommands[args[0]]; ok {
			sub(args[1:])
			return 0
		}
	}
	fs := flag.NewFlagSet("perfsight", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("scenario", "list", "scenario to run (or 'list')")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *name == "list" {
		fmt.Fprintln(stdout, "available scenarios:")
		for _, f := range experiments.Faults {
			fmt.Fprintf(stdout, "  %-18s %s\n", f.Name, f.About)
		}
		return 0
	}
	f, ok := experiments.FaultByName(*name)
	if !ok {
		fmt.Fprintf(stderr, "unknown scenario %q; try -scenario list\n", *name)
		return 2
	}
	demo := demos[f.Name]
	if demo == nil {
		demo = func(w io.Writer) error { return runFault(w, f) }
	}
	if err := demo(stdout); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	return 0
}

const tid = core.TenantID("demo")

// runFault runs a fault table row as is and prints the verdict beside the
// row's ground truth.
func runFault(w io.Writer, f experiments.Fault) error {
	fmt.Fprintf(w, "%s: warming up a healthy deployment, then injecting the fault...\n", f.About)
	stack, chain, err := f.Diagnose(tid)
	if err != nil {
		return err
	}
	if chain != nil {
		fmt.Fprintln(w, "verdict:", chain)
		if len(f.RootCauses) == 0 {
			fmt.Fprintln(w, "ground truth: the traffic source is underloaded")
		} else {
			fmt.Fprintln(w, "ground truth: root cause(s)", f.RootCauses)
		}
		return nil
	}
	fmt.Fprintln(w, "diagnosis:", stack)
	fmt.Fprintf(w, "ground truth: %s, dropping at %s\n", f.Resource, f.Location)
	return nil
}

func runMembw(w io.Writer) error {
	l, err := experiments.NewSinkFleet(tid, 4, 2e9, 800e6)
	if err != nil {
		return err
	}
	defer l.Close()
	tracer := l.C.EnableDropTracing("m0", 4096)

	fmt.Fprintln(w, "warming up a healthy deployment (4 VMs receiving ~3.2 Gbps)...")
	l.Run(3 * time.Second)
	rep, err := diagnosis.FindContentionAndBottleneck(l.Ctl, tid, time.Second)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "baseline:", rep)

	fmt.Fprintln(w, "\nstarting memory-intensive VMs (streaming 26 GB/s)...")
	l.M.AddHog(experiments.MemHog("memvms", 26e9))
	rep, err = diagnosis.FindContentionAndBottleneck(l.Ctl, tid, 3*time.Second)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "diagnosis:", rep)
	fmt.Fprintf(w, "evidence: cpu %.0f%%, membus %.0f%%\n",
		rep.Evidence.CPUUtil*100, rep.Evidence.MembusUtil*100)
	fmt.Fprint(w, tracer)
	fmt.Fprintln(w, "operator action: migrate the memory-intensive VMs (§7.3)")
	return nil
}

func runBacklog(w io.Writer) error {
	cfg := machine.DefaultConfig("m0")
	cfg.Stack.Costs.NAPICyclesPerPkt = 9000
	l, err := experiments.NewBacklogFlood(cfg, tid, nil)
	if err != nil {
		return err
	}
	defer l.Close()
	flow1Mbps := func() float64 {
		before := l.Sink.ReceivedBytes()
		l.Run(time.Second)
		return float64(l.Sink.ReceivedBytes()-before) * 8 / 1e6
	}

	fmt.Fprintln(w, "VM1 receiving 500 Mbps; VM2 idle...")
	l.Run(3 * time.Second)
	fmt.Fprintf(w, "flow 1: %.0f Mbps\n", flow1Mbps())

	fmt.Fprintln(w, "\nVM2 floods 64-byte packets as fast as it can...")
	l.StartFlood()
	rep, err := diagnosis.FindContentionAndBottleneck(l.Ctl, tid, 3*time.Second)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "flow 1 now: %.0f Mbps\n", flow1Mbps())
	fmt.Fprintln(w, "diagnosis:", rep)
	fmt.Fprintf(w, "NIC check: rx+tx %.0f Mbps of %.0f Mbps — the wire is NOT the problem\n",
		(rep.Evidence.PNICRxBps+rep.Evidence.PNICTxBps)/1e6, rep.Evidence.PNICCapBps/1e6)
	return nil
}

func runBottleneck(w io.Writer) error {
	l, err := experiments.NewBottleneck(tid)
	if err != nil {
		return err
	}
	defer l.Close()

	fmt.Fprintln(w, "two VMs each receiving 400 Mbps; vm1 has 2% of a core...")
	l.Run(2 * time.Second)
	rep, err := diagnosis.FindContentionAndBottleneck(l.Ctl, tid, 3*time.Second)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "diagnosis:", rep)
	fmt.Fprintln(w, "operator action: the tenant should redeploy", rep.BottleneckVM, "in a larger VM (§2.2)")
	return nil
}

func runChain(w io.Writer) error {
	l, err := experiments.NewChain3(tid)
	if err != nil {
		return err
	}
	defer l.Close()

	fmt.Fprintln(w, "client -> LB -> proxy -> server; the client POSTs as fast as possible...")
	l.Run(3 * time.Second)
	rep, err := diagnosis.LocateRootCause(l.Ctl, tid, 2*time.Second)
	if err != nil {
		return err
	}
	for _, id := range []core.ElementID{"m0/vm-lb/app", "m0/vm-px/app", "m0/vm-srv/app"} {
		m := rep.Metrics[id]
		fmt.Fprintf(w, "  %-16s b/t_in %10.1f Mbps  b/t_out %10.1f Mbps  %s\n",
			id.Leaf()+"@"+string(id.VM()), m.InRateBps/1e6, m.OutRateBps/1e6, m.State)
	}
	fmt.Fprintln(w, "verdict:", rep)
	return nil
}
