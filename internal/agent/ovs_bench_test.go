package agent

import (
	"fmt"
	"testing"
)

func TestParseRuleLine(t *testing.T) {
	cases := []struct {
		in         string
		flow       string
		pkts, byts uint64
		ok         bool
	}{
		{"flow=f1 packets=100 bytes=144800", "f1", 100, 144800, true},
		{"flow=tenantA/http packets=0 bytes=0", "tenantA/http", 0, 0, true},
		{"flow=f1 packets=18446744073709551615 bytes=1", "f1", 1<<64 - 1, 1, true},
		{"flow=f1 packets=18446744073709551616 bytes=1", "", 0, 0, false}, // uint64 overflow
		{"flow=f1 packets=1e3 bytes=1", "", 0, 0, false},
		{"flow=f1 packets= bytes=1", "", 0, 0, false},
		{"flow= packets=1 bytes=1", "", 0, 0, false},
		{"flow=f1 packets=1", "", 0, 0, false},
		{"flow=f1 bytes=1 packets=1", "", 0, 0, false}, // field order is fixed
		{"packets=1 bytes=1", "", 0, 0, false},
		{"", "", 0, 0, false},
	}
	for _, c := range cases {
		flow, pkts, byts, ok := parseRuleLine([]byte(c.in))
		if ok != c.ok {
			t.Errorf("parseRuleLine(%q) ok=%v; want %v", c.in, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if string(flow) != c.flow || pkts != c.pkts || byts != c.byts {
			t.Errorf("parseRuleLine(%q) = %q,%d,%d; want %q,%d,%d",
				c.in, flow, pkts, byts, c.flow, c.pkts, c.byts)
		}
	}
}

// The manual parser must stay allocation-free: at legacy enumeration
// scale it runs once per flow per sweep.
func TestParseRuleLineAllocBudget(t *testing.T) {
	line := []byte("flow=tenantA/flow-123 packets=123456789 bytes=178764830272")
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, _, ok := parseRuleLine(line); !ok {
			t.Fatal("parse failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("parseRuleLine allocates %v/op; want 0", allocs)
	}
}

// BenchmarkOVSRuleParse is the manual strings.Cut/strconv-style parser
// referenced by the parseRuleLine comment. Compare with the Sscanf
// variant below — the form the adapter used before.
func BenchmarkOVSRuleParse(b *testing.B) {
	line := []byte("flow=tenantA/flow-123 packets=123456789 bytes=178764830272")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, _, _, ok := parseRuleLine(line); !ok {
			b.Fatal("parse failed")
		}
	}
}

// BenchmarkOVSRuleParseSscanf is the old fmt.Sscanf implementation, kept
// only as the benchmark baseline the manual parser replaced.
func BenchmarkOVSRuleParseSscanf(b *testing.B) {
	line := "flow=tenantA/flow-123 packets=123456789 bytes=178764830272"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var flow string
		var pkts, byts uint64
		if _, err := fmt.Sscanf(line, "flow=%s packets=%d bytes=%d", &flow, &pkts, &byts); err != nil {
			b.Fatal(err)
		}
	}
}

// loadedAgent is the agent the collection-cost gates measure: every
// channel Build can wire (stats sockets, sketch flow statistics), warmed
// so connections are dialled, logs open and parse scratch grown.
func loadedAgent(tb testing.TB, vms int) (*Agent, int) {
	a, err := Build(vmMachine(vms), BuildOptions{QEMULogDir: tb.TempDir(), UseMboxSockets: true, FlowStats: FlowStatsSketch})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { a.Close() })
	for i := 0; i < 3; i++ {
		if _, err := a.Fetch(nil, nil, true); err != nil {
			tb.Fatal(err)
		}
	}
	return a, len(a.Elements())
}

// TestFetchMachineAllocBudget gates what a whole-inventory fetch of a
// loaded machine allocates per record, so per-element reads and parses
// (58 per record before sources were shared) do not creep back. What is
// left is each record's attrs, the element snapshots behind the rendered
// files and logs, and the sketch blob.
func TestFetchMachineAllocBudget(t *testing.T) {
	const budget = 5.25 // measured 4.97 (144 per 29-record fetch), 5.03 under -race; 4.64 at 8 VMs
	a, records := loadedAgent(t, 2)
	allocs := testing.AllocsPerRun(50, func() {
		if recs, err := a.Fetch(nil, nil, true); err != nil || len(recs) != records {
			t.Fatalf("fetch: %d records, %v", len(recs), err)
		}
	})
	t.Logf("%.0f allocs per fetch of %d records = %.2f per record", allocs, records, allocs/float64(records))
	if per := allocs / float64(records); per > budget {
		t.Fatalf("whole-inventory fetch allocates %.2f per record; budget %.2f", per, budget)
	}
}

// BenchmarkAgentFetchMachine is one whole-inventory fetch of the
// benchmark's 8-VM machine through every channel.
func BenchmarkAgentFetchMachine(b *testing.B) {
	a, records := loadedAgent(b, 8)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if recs, err := a.Fetch(nil, nil, true); err != nil || len(recs) != records {
			b.Fatalf("fetch: %d records, %v", len(recs), err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
}
