// Package operator builds the cloud-operator workflow of §7.3 on top of
// the diagnosis applications: a tenant's trouble ticket runs both
// diagnoses over its virtual network, and the advisor maps every
// diagnosis to a concrete remediation — the §2.2 taxonomy assigns each
// root-cause class an owner and a fix (tenant redeploys a larger VM;
// operator migrates contending work; tenant scales a bottleneck
// middlebox out; tenant reloads buggy software).
//
// Deciding that several tenants' reports are one infrastructure problem
// (§7.4) is the anomaly correlator's job: its incidents fold on the
// root cause and the machine it sits on.
package operator

import (
	"fmt"
	"strings"
	"time"

	"perfsight/internal/controller"
	"perfsight/internal/core"
	"perfsight/internal/diagnosis"
)

// Ticket is one tenant's complaint plus the diagnosis PerfSight ran for it.
type Ticket struct {
	Tenant core.TenantID
	// Stack is the Algorithm 1 report (nil if not run).
	Stack *diagnosis.ContentionReport
	// Chain is the Algorithm 2 report (nil if the tenant has no chains).
	Chain *diagnosis.RootCauseReport
}

// Diagnose opens a ticket for a tenant by running both diagnostic
// applications over window T. Either application may be inapplicable
// (no stack elements assigned, or no middleboxes); the ticket carries
// whatever succeeded.
func Diagnose(ctl *controller.Controller, tenant core.TenantID, T time.Duration) (Ticket, error) {
	t := Ticket{Tenant: tenant}
	stack, serr := diagnosis.FindContentionAndBottleneck(ctl, tenant, T)
	if serr == nil {
		t.Stack = stack
	}
	chain, cerr := diagnosis.LocateRootCause(ctl, tenant, T)
	if cerr == nil {
		t.Chain = chain
	}
	if serr != nil && cerr != nil {
		return t, fmt.Errorf("operator: tenant %s: %v; %v", tenant, serr, cerr)
	}
	return t, nil
}

// Action enumerates the remediations of §2.2/§7.3.
type Action int

const (
	ActionNone Action = iota
	// ActionMigrateInterference: operator moves contending work off the
	// machine (the §7.3 management-task migration).
	ActionMigrateInterference
	// ActionResizeVM: tenant redeploys the bottleneck VM with a larger
	// allocation (§2.2 "the tenant can redeploy the middlebox in a
	// 'larger' VM").
	ActionResizeVM
	// ActionScaleOut: tenant adds another instance of the overloaded
	// middlebox and splits traffic (the §7.3 load-balancer scale-out).
	ActionScaleOut
	// ActionReloadSoftware: the root cause shows a performance bug; the
	// tenant reloads the VM with a suitable software version (§2.2).
	ActionReloadSoftware
	// ActionAddCapacity: the physical NIC itself is the shortage; the
	// operator must re-place tenants or add bandwidth.
	ActionAddCapacity
	// ActionThrottleSource: the chain is underloaded — the problem is the
	// traffic source, not the dataplane.
	ActionThrottleSource
)

var actionNames = map[Action]string{
	ActionNone:                "no-action",
	ActionMigrateInterference: "migrate-interfering-workload",
	ActionResizeVM:            "resize-vm",
	ActionScaleOut:            "scale-out-middlebox",
	ActionReloadSoftware:      "reload-software",
	ActionAddCapacity:         "add-nic-capacity",
	ActionThrottleSource:      "source-underloaded",
}

func (a Action) String() string {
	if s, ok := actionNames[a]; ok {
		return s
	}
	return fmt.Sprintf("action(%d)", int(a))
}

// Owner says who must act (§2.2: bottlenecks are the tenant's to fix,
// contention usually requires the operator).
type Owner int

const (
	OwnerNobody Owner = iota
	OwnerTenant
	OwnerOperator
)

func (o Owner) String() string {
	switch o {
	case OwnerTenant:
		return "tenant"
	case OwnerOperator:
		return "operator"
	}
	return "nobody"
}

// Recommendation is one advised remediation.
type Recommendation struct {
	Action Action
	Owner  Owner
	// Target is the element or VM the action applies to, if any.
	Target core.ElementID
	Reason string
}

func (r Recommendation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "[%s] %s", r.Owner, r.Action)
	if r.Target != "" {
		fmt.Fprintf(&b, " target=%s", r.Target)
	}
	if r.Reason != "" {
		fmt.Fprintf(&b, " — %s", r.Reason)
	}
	return b.String()
}

// Advise maps a ticket's diagnoses to remediations.
func Advise(t Ticket) []Recommendation {
	var recs []Recommendation

	if s := t.Stack; s != nil && s.TotalLoss > 0 {
		switch s.Scope {
		case diagnosis.ScopeBottleneck:
			recs = append(recs, Recommendation{
				Action: ActionResizeVM,
				Owner:  OwnerTenant,
				Target: core.ElementID(s.BottleneckVM),
				Reason: fmt.Sprintf("loss confined to %s's datapath (%s)", s.BottleneckVM, s.Inferred),
			})
		case diagnosis.ScopeContention:
			switch s.Inferred {
			case diagnosis.ResourceIncomingBandwidth, diagnosis.ResourceOutgoingBandwidth:
				recs = append(recs, Recommendation{
					Action: ActionAddCapacity,
					Owner:  OwnerOperator,
					Reason: fmt.Sprintf("pNIC is the shortage (%s)", s.Inferred),
				})
			default:
				recs = append(recs, Recommendation{
					Action: ActionMigrateInterference,
					Owner:  OwnerOperator,
					Reason: fmt.Sprintf("%s contention at %s across VMs %v",
						s.Inferred, s.TopLocation, s.DroppingVMs),
				})
			}
		}
	}

	if c := t.Chain; c != nil {
		// Scale-out advice only makes sense when something in the chain is
		// actually distressed: at least one blocked member (propagation
		// pruned down to the cause) or an Overloaded label. A chain whose
		// members are all Normal is healthy, however many candidates remain.
		anyBlocked := false
		for _, m := range c.Metrics {
			if m.State != diagnosis.StateNormal {
				anyBlocked = true
				break
			}
		}
		switch {
		case c.SourceUnderloaded:
			recs = append(recs, Recommendation{
				Action: ActionThrottleSource,
				Owner:  OwnerNobody,
				Reason: "every middlebox is ReadBlocked; the traffic source is underloaded",
			})
		case !anyBlocked:
			// Healthy chain: nothing to remediate.
		default:
			for _, id := range c.RootCauses {
				m := c.Metrics[id]
				action := ActionScaleOut
				reason := "unblocked middlebox saturated while neighbours are blocked"
				if !c.Overloaded[id] {
					reason = "remaining candidate after pruning blocked chains"
				}
				// Both Overloaded-by-load and buggy middleboxes surface the
				// same way; the advisor recommends scale-out first and a
				// software reload if scale-out does not restore throughput.
				recs = append(recs, Recommendation{
					Action: action,
					Owner:  OwnerTenant,
					Target: id,
					Reason: fmt.Sprintf("%s (b/t_in %.0f Mbps, b/t_out %.0f Mbps)",
						reason, m.InRateBps/1e6, m.OutRateBps/1e6),
				})
			}
		}
	}

	if len(recs) == 0 {
		recs = append(recs, Recommendation{Action: ActionNone, Owner: OwnerNobody,
			Reason: "no loss and no blocked middleboxes observed"})
	}
	return recs
}
