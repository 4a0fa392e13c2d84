// Multitenant: the paper's §7.3 operator workflow (Figures 13/14). Two
// tenants' proxies share a physical machine. PerfSight lets the operator
// tell apart a tenant-local bottleneck (fix: scale out) from machine-level
// contention (fix: migrate the interfering work) — and verify each fix.
//
//	go run ./examples/multitenant
package main

import (
	"fmt"
	"log"
	"time"

	"perfsight/internal/diagnosis"
	"perfsight/internal/experiments"
)

func main() {
	// Tenant 1: 180 Mbps through a fast proxy. Tenant 2: 360 Mbps offered,
	// but its proxy can only process ~200 Mbps. Both proxies share
	// m-shared; m-spare stands empty. Each tenant has its own view, the
	// operator sees every VM on the machine.
	l, err := experiments.NewFig13()
	if err != nil {
		log.Fatal(err)
	}
	defer l.Close()

	report := func(tag string) {
		d1, d2 := l.Delivered()
		l.Run(2 * time.Second)
		n1, n2 := l.Delivered()
		fmt.Printf("%-28s tenant1 %3.0f Mbps   tenant2 %3.0f Mbps\n", tag,
			float64(n1-d1)*8/2e6, float64(n2-d2)*8/2e6)
	}

	fmt.Println("two tenants share m-shared; tenant 2 offers 360 Mbps")
	l.Run(3 * time.Second)
	report("initial:")

	// Tenant 2 complains. The operator checks its middlebox states.
	rc, err := diagnosis.LocateRootCause(l.Ctl, experiments.Fig13Tenant2, 2*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf(">>> tenant 2's ticket: %s\n", rc)

	fmt.Println("\n>>> a memory-intensive management task lands on m-shared")
	hog := l.M.AddHog(experiments.MemHog("mgmt", 26e9))
	rep, err := diagnosis.FindContentionAndBottleneck(l.Ctl, experiments.Fig13Operator, 3*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	report("during contention:")
	fmt.Printf(">>> operator's diagnosis: %s (dropping VMs: %v)\n", rep, rep.DroppingVMs)

	fmt.Println("\n>>> operator migrates the management task away")
	l.M.RemoveHog(hog)
	l.Run(2 * time.Second)
	report("after migration:")

	fmt.Println("\n>>> operator scales tenant 2's proxy out to m-spare")
	if err := l.ScaleOut(); err != nil {
		log.Fatal(err)
	}
	l.Run(3 * time.Second)
	report("after scale-out:")
}
