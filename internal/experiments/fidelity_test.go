package experiments

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"perfsight/internal/controller"
	"perfsight/internal/core"
	"perfsight/internal/wire"
)

// channelAttrs declares what each collection channel carries, by the kind
// of element it collects: a fixed attr set, or nil where the channel
// carries the element's whole snapshot. The vswitch's channel also
// carries a packets and a bytes attr per flow rule.
var channelAttrs = []struct {
	channel string
	kinds   []core.ElementKind
	attrs   []string
}{
	{"procfs:netdev", []core.ElementKind{core.KindPNIC, core.KindVNIC},
		[]string{"capacity_bps", "drop_packets", "kind", "queue_cap", "queue_len", "rx_bytes", "rx_packets", "tx_bytes", "tx_packets"}},
	{"procfs:netdev", []core.ElementKind{core.KindTUN},
		[]string{"drop_packets", "kind", "queue_cap", "queue_len", "rx_bytes", "rx_packets", "tx_bytes", "tx_packets"}},
	{"procfs:softnet", []core.ElementKind{core.KindPCPUBacklog, core.KindVCPUBacklog},
		[]string{"drop_packets", "kind", "queue_cap", "queue_len", "rx_packets", "tx_packets"}},
	{"ovs:DUMP", []core.ElementKind{core.KindVSwitch},
		[]string{"drop_bytes", "drop_packets", "kind", "rx_bytes", "rx_packets", "tx_bytes", "tx_packets"}},
	{"log:qemu", []core.ElementKind{core.KindHypervisorIO},
		[]string{"drop_bytes", "drop_packets", "kind", "rx_bytes", "rx_packets", "tx_bytes", "tx_packets"}},
	{"direct", []core.ElementKind{core.KindPNICDriver, core.KindNAPIRoutine, core.KindVNICDriver,
		core.KindGuestNAPI, core.KindGuestSocket, core.KindMiddlebox, core.KindUnknown}, nil},
}

// TestCollectionFidelity checks that what the agents collect is what the
// dataplane counted: for every fault table row, at three lab instants,
// every record fetched over a LocalClient and over one ServeTCP agent
// carries exactly its channel's declared attrs, each equal to the
// element's own snapshot at that instant (a vswitch rule attr to the
// rule's counters).
func TestCollectionFidelity(t *testing.T) {
	for _, f := range Faults {
		t.Run(f.Name, func(t *testing.T) {
			l, inject, err := f.Build("t-fidelity")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			machines := l.C.Machines()
			tcp, err := l.ServeTCP(machines[0])
			if err != nil {
				t.Fatal(err)
			}
			inject()
			for _, d := range []time.Duration{0, 500 * time.Millisecond, time.Second} {
				l.Run(d)
				for _, mid := range machines {
					checkFidelity(t, l, mid, &controller.LocalClient{A: l.Agents[mid]}, "local")
				}
				checkFidelity(t, l, machines[0], tcp, "tcp")
				if got := tcp.NegotiatedCodec(); got != wire.CodecV2 {
					t.Fatalf("TCP agent negotiated %q; want %q", got, wire.CodecV2)
				}
			}
		})
	}
}

// checkFidelity fetches every element of mid's agent through the client
// and checks each record against the dataplane.
func checkFidelity(t *testing.T, l *Lab, mid core.MachineID, client controller.AgentClient, via string) {
	t.Helper()
	recs, err := client.Query(wire.Query{All: true})
	if err != nil {
		t.Fatalf("%s %s: %v", via, mid, err)
	}
	m := l.C.Machine(mid)
	snaps := make(map[core.ElementID]core.Record)
	kinds := make(map[core.ElementID]core.ElementKind)
	for _, e := range m.Elements() {
		snaps[e.ID()], kinds[e.ID()] = e.Snapshot(0), e.Kind()
	}
	rules := make(map[string]float64)
	for _, r := range m.Stack.VSwitch.Rules() {
		rules["rule_"+string(r.Flow)+"_packets"] = float64(r.Packets.Load())
		rules["rule_"+string(r.Flow)+"_bytes"] = float64(r.Bytes.Load())
	}
	if len(recs) != len(snaps) {
		t.Errorf("%s %s: %d records for %d elements", via, mid, len(recs), len(snaps))
	}
	for _, rec := range recs {
		snap, ok := snaps[rec.Element]
		if !ok {
			t.Errorf("%s: record for %s, which is no element of %s", via, rec.Element, mid)
			continue
		}
		kind := kinds[rec.Element]
		var names []string
		ruleAttrs := 0
		for _, a := range rec.Attrs {
			name := core.AttrName(a.ID)
			want, has := snap.Get(a.ID)
			if kind == core.KindVSwitch && strings.HasPrefix(name, "rule_") {
				want, has = rules[name]
				ruleAttrs++
			} else {
				names = append(names, name)
			}
			if !has || a.Value != want {
				t.Errorf("%s %s %s = %v; dataplane %v (present %v)", via, rec.Element, name, a.Value, want, has)
			}
		}
		slices.Sort(names)
		if want := declaredAttrs(t, kind, snap); !reflect.DeepEqual(names, want) {
			t.Errorf("%s %s (%s) carries %v; its channel declares %v", via, rec.Element, kind, names, want)
		}
		if kind == core.KindVSwitch && ruleAttrs != len(rules) {
			t.Errorf("%s %s carries %d rule attrs for %d rules", via, rec.Element, ruleAttrs, len(rules)/2)
		}
	}
}

// declaredAttrs returns the sorted attr names channelAttrs declares for
// an element of the kind whose snapshot is snap.
func declaredAttrs(t *testing.T, kind core.ElementKind, snap core.Record) []string {
	for _, ch := range channelAttrs {
		if !slices.Contains(ch.kinds, kind) {
			continue
		}
		if ch.attrs != nil {
			return ch.attrs
		}
		var out []string
		for _, a := range snap.Attrs {
			out = append(out, core.AttrName(a.ID))
		}
		slices.Sort(out)
		return out
	}
	t.Fatalf("no channel declared for kind %s", kind)
	return nil
}
