package experiments

import (
	"strings"
	"testing"
	"time"
)

// TestFig3Shape checks the motivating figure's three claims: a saturated
// plateau, a knee, and a decline near -439 Mbps per GB/s.
func TestFig3Shape(t *testing.T) {
	r, err := RunFig3(DefaultFig3Config())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig3", r)
	if r.PeakNetGbps < 9 || r.PeakNetGbps > 10.5 {
		t.Errorf("peak %.2f Gbps; want ~10", r.PeakNetGbps)
	}
	if r.KneeGBps < 2.5 || r.KneeGBps > 6 {
		t.Errorf("knee at %.1f GB/s; want ~4-5", r.KneeGBps)
	}
	if r.SlopeMbpsPerGBps > -300 || r.SlopeMbpsPerGBps < -600 {
		t.Errorf("slope %.0f Mbps per GB/s; want ~-439", r.SlopeMbpsPerGBps)
	}
}

// TestFig8AllPhases checks every injected problem is located correctly.
func TestFig8AllPhases(t *testing.T) {
	cfg := DefaultFig8Config()
	cfg.PhaseLen = 6 * time.Second
	cfg.QuietLen = 4 * time.Second
	r, err := RunFig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig8", r)
	for _, p := range r.Phases {
		if !p.OK {
			t.Errorf("phase %s: observed %s, want %s (inferred %s)",
				p.Name, p.ObservedLoc, p.ExpectedLoc, p.Inferred)
		}
	}
}

// TestFig9Shape checks the channel-latency ordering.
func TestFig9Shape(t *testing.T) {
	r, err := RunFig9(7)
	if err != nil {
		t.Fatal(err)
	}
	if !r.ShapeCorrect() {
		t.Errorf("latency shape wrong:\n%s", r)
	}
}

// TestFig10BacklogContention checks collapse plus correct diagnosis.
func TestFig10BacklogContention(t *testing.T) {
	r, err := RunFig10()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig10", r)
	if !r.Correct() {
		t.Fatalf("diagnosis wrong: %s", r.Report)
	}
	if r.AfterGbps > 0.75*r.BeforeGbps {
		t.Errorf("flow1 %.3f -> %.3f Gbps; want a collapse", r.BeforeGbps, r.AfterGbps)
	}
}

// TestFig11MemoryBandwidth checks the throughput drop and TUN-dominated
// loss distribution.
func TestFig11MemoryBandwidth(t *testing.T) {
	r, err := RunFig11()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig11", r)
	if !r.Correct() {
		t.Fatalf("fig11 wrong: %s", r)
	}
	if r.AfterGbps > 0.75*r.BeforeGbps {
		t.Errorf("throughput %.2f -> %.2f; want a clear drop", r.BeforeGbps, r.AfterGbps)
	}
}

// TestFig12Propagation checks all three root-cause cases.
func TestFig12Propagation(t *testing.T) {
	r, err := RunFig12()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig12", r)
	if !r.AllCorrect() {
		t.Fatalf("fig12 wrong:\n%s", r)
	}
}

// TestFig13Operator checks the multi-tenant workflow's headline numbers.
func TestFig13Operator(t *testing.T) {
	r, err := RunFig13()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig13", r)
	if !r.Correct() {
		t.Fatalf("fig13 wrong:\n%s", r)
	}
	if !strings.Contains(r.Phases[0].Note, "vm-p2") {
		t.Errorf("phase 1 should blame vm-p2: %q", r.Phases[0].Note)
	}
}

// TestTable1RuleBook checks every resource probe.
func TestTable1RuleBook(t *testing.T) {
	r, err := RunTable1()
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table1", r)
	if !r.AllCorrect() {
		t.Fatalf("rule book wrong:\n%s", r)
	}
}

// TestTable2Overhead checks the <2% instrumentation bound.
func TestTable2Overhead(t *testing.T) {
	r, err := RunTable2(3)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct() {
		t.Fatalf("table2 wrong:\n%s", r)
	}
}

// TestFig15MiddleboxOverhead checks the <5% bound per middlebox type.
func TestFig15MiddleboxOverhead(t *testing.T) {
	r, err := RunFig15(2)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Correct() {
		t.Fatalf("fig15 wrong:\n%s", r)
	}
}

// TestFig16QueryCost checks the polling-cost curve over real TCP.
func TestFig16QueryCost(t *testing.T) {
	r, err := RunFig16([]float64{2, 40, 120}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !r.ShapeCorrect() {
		t.Errorf("fig16 shape wrong:\n%s", r)
	}
}
