package middlebox_test

import (
	"testing"
	"time"

	"perfsight/internal/core"
	. "perfsight/internal/middlebox"
)

// TestIDSAmpleCPUForwardsEverything: with a generous vCPU grant the capture
// ring never overflows and every byte is inspected and forwarded.
func TestIDSAmpleCPUForwardsEverything(t *testing.T) {
	h := newHarness(t)
	out := &fastOutput{}
	ids := NewIDS("m0/vm0/app", 1e9, out)
	ids.SetTimeCountersEnabled(false)
	h.deliver(20000)
	h.step(ids, time.Millisecond, 20e6)
	if ids.DroppedPackets() != 0 {
		t.Fatalf("ample CPU dropped %d packets", ids.DroppedPackets())
	}
	if ids.InspectedBytes() != 20000 || out.bytes != 20000 {
		t.Fatalf("inspected %d forwarded %d; want 20000/20000", ids.InspectedBytes(), out.bytes)
	}
}

// TestIDSDropsUnderCPUContention is the kind's defining behavior: the tap
// keeps capturing while inspection is starved of cycles, so the ring
// overflows and the overflow shows up in the standard drop counters that
// Algorithm 1 ranks.
func TestIDSDropsUnderCPUContention(t *testing.T) {
	h := newHarness(t)
	ids := NewIDSWithConfig("m0/vm0/app", 1e9, IDSConfig{BufBytes: 20000}, &fastOutput{})
	ids.SetTimeCountersEnabled(false)
	for tick := 0; tick < 5; tick++ {
		h.deliver(50000)
		h.step(ids, time.Duration(tick)*time.Millisecond, 10_000) // ~180 B of inspection
	}
	if ids.DroppedPackets() == 0 {
		t.Fatal("starved IDS dropped nothing; ring overflow not modeled")
	}
	rec := ids.Snapshot(0)
	if got := rec.GetOr(core.AttrDropPackets, 0); got != float64(ids.DroppedPackets()) {
		t.Fatalf("snapshot drop_packets = %v; want %d", got, ids.DroppedPackets())
	}
	if got := rec.GetOr(core.AttrDropBytes, 0); got <= 0 {
		t.Fatalf("snapshot drop_bytes = %v; want > 0", got)
	}
	if rec.GetOr(core.AttrKind, 0) != float64(core.KindMiddlebox) {
		t.Fatal("IDS record must carry the middlebox kind tag")
	}
}

// TestIDSAlerts: alerts accumulate as a fraction of inspected packets and
// export through the registered extension attribute.
func TestIDSAlerts(t *testing.T) {
	h := newHarness(t)
	ids := NewIDSWithConfig("m0/vm0/app", 1e9, IDSConfig{AlertRatio: 0.1}, &fastOutput{})
	ids.SetTimeCountersEnabled(false)
	h.deliver(144800) // 100 packets
	h.step(ids, time.Millisecond, 20e6)
	if got := ids.Alerts(); got < 8 || got > 12 {
		t.Fatalf("alerts = %d; want ~10 (0.1 of 100 packets)", got)
	}
	rec := ids.Snapshot(0)
	if got := rec.GetOr(core.AttrIDFor("ids_alerts"), 0); got != float64(ids.Alerts()) {
		t.Fatalf("ids_alerts attr = %v; want %d", got, ids.Alerts())
	}
}

// TestSmartCacheWarmsUp: the hit ratio ramps with observed bytes, so the
// output stream thins from a 1:1 copy toward 1−MaxHitRatio of the input.
func TestSmartCacheWarmsUp(t *testing.T) {
	h := newHarness(t)
	out := &fastOutput{}
	sc := NewSmartCacheWithConfig("m0/vm0/app", 1e9, SmartCacheConfig{
		MaxHitRatio: 0.5,
		WarmupBytes: 50000,
	}, out)
	sc.SetTimeCountersEnabled(false)

	if sc.HitRatio() != 0 {
		t.Fatalf("cold cache hit ratio = %v; want 0", sc.HitRatio())
	}
	h.deliver(25000)
	h.step(sc, 0, 5e6)
	coldMiss := sc.MissBytes()
	if coldMiss < 24000 { // cold: essentially everything forwarded
		t.Fatalf("cold cache forwarded only %d of 25000", coldMiss)
	}

	// Warm it past WarmupBytes, then measure the steady-state ratio.
	for tick := 1; tick <= 4; tick++ {
		h.deliver(25000)
		h.step(sc, time.Duration(tick)*time.Millisecond, 5e6)
	}
	if sc.HitRatio() != 0.5 {
		t.Fatalf("warm hit ratio = %v; want 0.5", sc.HitRatio())
	}
	before := sc.MissBytes()
	h.deliver(20000)
	h.step(sc, 5*time.Millisecond, 5e6)
	warmMiss := sc.MissBytes() - before
	if warmMiss < 9000 || warmMiss > 11000 {
		t.Fatalf("warm cache forwarded %d of 20000; want ~10000", warmMiss)
	}
	if got := sc.HitBytes() + sc.MissBytes(); out.bytes != sc.MissBytes() || got == 0 {
		t.Fatalf("accounting mismatch: out=%d miss=%d hit=%d", out.bytes, sc.MissBytes(), sc.HitBytes())
	}
}

// TestSmartCacheSnapshotAttrs checks the extension attributes round-trip
// through the schema registry.
func TestSmartCacheSnapshotAttrs(t *testing.T) {
	h := newHarness(t)
	sc := NewSmartCache("m0/vm0/app", 1e9, &fastOutput{})
	sc.SetTimeCountersEnabled(false)
	h.deliver(10000)
	h.step(sc, 0, 5e6)
	rec := sc.Snapshot(0)
	if got := rec.GetOr(core.AttrIDFor("cache_miss_bytes"), -1); got != float64(sc.MissBytes()) {
		t.Fatalf("cache_miss_bytes = %v; want %d", got, sc.MissBytes())
	}
	if got := rec.GetOr(core.AttrIDFor("cache_hit_ratio"), -1); got != sc.HitRatio() {
		t.Fatalf("cache_hit_ratio = %v; want %v", got, sc.HitRatio())
	}
}
