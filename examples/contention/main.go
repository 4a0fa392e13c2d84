// Contention: the motivating problem of the paper's §2.3. Four tenant VMs
// receive network traffic; memory-intensive VMs then start on the same
// machine and silently throttle them through the shared memory bus —
// nothing in the network path looks wrong until PerfSight's element-level
// drop counters point at the TUN socket queues, and the Table 1 rule book
// plus utilization evidence blames the memory bus.
//
//	go run ./examples/contention
package main

import (
	"fmt"
	"log"
	"time"

	"perfsight/internal/core"
	"perfsight/internal/diagnosis"
	"perfsight/internal/experiments"
)

const tenant = core.TenantID("t-net")

func main() {
	// Four network-intensive tenant VMs on one machine, each receiving
	// ~850 Mbps, with the machine's agent and a controller whose
	// measurement windows advance virtual time.
	l, err := experiments.NewSinkFleet(tenant, 4, 2e9, 850e6)
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()

	throughput := func(window time.Duration) float64 {
		var before int64
		for _, s := range l.Sinks {
			before += s.ReceivedBytes()
		}
		l.Run(window)
		var after int64
		for _, s := range l.Sinks {
			after += s.ReceivedBytes()
		}
		return float64(after-before) * 8 / window.Seconds() / 1e9
	}

	l.Run(2 * time.Second)
	fmt.Printf("healthy aggregate throughput: %.2f Gbps\n", throughput(2*time.Second))

	fmt.Println("\n>>> memory-intensive VMs start (26 GB/s of streaming copies)")
	hog := l.M.AddHog(experiments.MemHog("memvms", 26e9))

	// Diagnose over the onset — the operator's view through agents.
	rep, err := diagnosis.FindContentionAndBottleneck(l.Ctl, tenant, 3*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("throttled aggregate throughput: %.2f Gbps\n", throughput(2*time.Second))
	fmt.Println("\nPerfSight diagnosis:", rep)
	fmt.Printf("  drop ranking:")
	for i, e := range rep.Ranked {
		if i >= 3 || e.Loss == 0 {
			break
		}
		fmt.Printf(" %s(%0.f)", e.Element, e.Loss)
	}
	fmt.Println()
	fmt.Printf("  dropping VMs: %v (multi-VM => contention, not a per-VM bottleneck)\n", rep.DroppingVMs)
	fmt.Printf("  evidence: cpu %.0f%%, membus %.0f%% => %s\n",
		rep.Evidence.CPUUtil*100, rep.Evidence.MembusUtil*100, rep.Inferred)
	fmt.Println("\n>>> the operator migrates the memory-intensive VMs away")
	l.M.RemoveHog(hog)
	l.Run(2 * time.Second)
	fmt.Printf("recovered aggregate throughput: %.2f Gbps\n", throughput(2*time.Second))
}
