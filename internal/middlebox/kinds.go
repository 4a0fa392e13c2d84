package middlebox

import "perfsight/internal/core"

// MboxKind names the middlebox types used across the evaluation (Fig 15
// compares their instrumentation overhead).
type MboxKind int

const (
	KindProxy MboxKind = iota
	KindLB
	KindCache
	KindRE
	KindIPS
	KindFirewall
	KindNAT
	KindTranscoder
	// KindIDS is the Snort-like detector with a bounded capture ring that
	// tail-drops under CPU contention (see IDS).
	KindIDS
	// KindSmartCache is the SmartRE-style cache whose output rate follows
	// a warming hit ratio (see SmartCache).
	KindSmartCache
)

// kindNames holds the display names in kind order.
var kindNames = [...]string{
	KindProxy:      "proxy",
	KindLB:         "lb",
	KindCache:      "cache",
	KindRE:         "re",
	KindIPS:        "ips",
	KindFirewall:   "firewall",
	KindNAT:        "nat",
	KindTranscoder: "transcoder",
	KindIDS:        "ids",
	KindSmartCache: "smartcache",
}

// String returns the kind's display name.
func (k MboxKind) String() string {
	if k >= 0 && int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// NewOfKind builds a forwarding middlebox of the named kind with its
// representative costs. Kinds that are not plain Forwarders (IDS,
// SmartCache) fall back to their closest Forwarder approximation; NewIDS
// and NewSmartCache build the real models.
func NewOfKind(k MboxKind, id core.ElementID, capacityBps float64, out Output) *Forwarder {
	switch k {
	case KindLB:
		return NewLoadBalancer(id, capacityBps, out)
	case KindCache:
		return NewCache(id, capacityBps, 0.3, out)
	case KindRE:
		return NewRedundancyEliminator(id, capacityBps, 0.5, out)
	case KindIPS, KindIDS:
		return NewIPS(id, capacityBps, out)
	case KindFirewall:
		return NewFirewall(id, capacityBps, 0.05, out)
	case KindNAT:
		return NewNAT(id, capacityBps, out)
	case KindSmartCache:
		return NewCache(id, capacityBps, 0.6, out)
	case KindTranscoder:
		return NewTranscoder(id, capacityBps, out)
	default:
		return NewProxy(id, capacityBps, out)
	}
}
