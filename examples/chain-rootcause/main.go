// Chain root cause: the paper's Figure 12 scenario. A load balancer and
// two content filters sit between a client and HTTP servers; the content
// filters log to a shared NFS server. When the NFS server develops a
// memory leak, the whole chain slows down — and naive monitoring blames
// the wrong box. Algorithm 2's ReadBlocked/WriteBlocked analysis isolates
// the true root cause.
//
//	go run ./examples/chain-rootcause
package main

import (
	"fmt"
	"log"
	"time"

	"perfsight/internal/core"
	"perfsight/internal/diagnosis"
	"perfsight/internal/experiments"
)

const tenant = core.TenantID("t-chain")

func main() {
	// The Fig 12 deployment on one machine, every vNIC 100 Mbps as in the
	// paper: typical HTTP servers (20 cycles/byte), content filters logging
	// 15% of their traffic to NFS, a client offering 70 Mbps; plus the
	// tenant's chains, the machine's agent and a controller.
	ch, err := experiments.NewFig12Chain(tenant, 20, 70e6)
	if err != nil {
		log.Fatal(err)
	}
	defer ch.Close()

	show := func(tag string) {
		rep, err := diagnosis.LocateRootCause(ch.Ctl, tenant, 2*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n%s\n", tag)
		fmt.Println("middlebox         b/t_in (Mbps)  b/t_out (Mbps)  state")
		for _, id := range experiments.Fig12Elements {
			m := rep.Metrics[id]
			out := "N/A"
			if m.OutActive {
				out = fmt.Sprintf("%.1f", m.OutRateBps/1e6)
			}
			fmt.Printf("%-16s  %12.1f  %14s  %s\n", id.VM(), m.InRateBps/1e6, out, m.State)
		}
		fmt.Println("verdict:", rep)
	}

	fmt.Println("chain: client -> LB -> {CF1, CF2} -> {S1, S2}, CFs log to shared NFS")
	ch.Run(3 * time.Second)
	show("healthy deployment:")

	fmt.Println("\n>>> injecting a memory leak into the NFS server (CentOS bug 7267)")
	ch.NFS.InjectLeak(ch.C.Now(), 50)
	ch.Run(10 * time.Second) // the stall creeps through the chain
	show("after the leak has propagated:")
}
