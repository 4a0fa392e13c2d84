package sim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
	"time"
)

// serialEngine is the cluster's default shape: one domain, one phase, one
// worker, which is the plain serial tick loop.
func serialEngine(dt time.Duration) *ParallelEngine { return NewParallelEngine(dt, 1, 1, 1, 0) }

func TestEngineStepAdvancesClock(t *testing.T) {
	e := serialEngine(time.Millisecond)
	if e.Now() != 0 {
		t.Fatalf("fresh engine at %v", e.Now())
	}
	e.Step()
	if e.Now() != time.Millisecond {
		t.Fatalf("after one step: %v", e.Now())
	}
	e.Run(10 * time.Millisecond)
	if e.Now() != 11*time.Millisecond {
		t.Fatalf("after Run(10ms): %v", e.Now())
	}
}

func TestEngineDefaultTick(t *testing.T) {
	e := serialEngine(0)
	if e.Dt() != DefaultTick {
		t.Fatalf("dt = %v; want %v", e.Dt(), DefaultTick)
	}
}

// TestEngineTickerOrderAndArgs: pre tickers, then the domain's phase
// tickers, then commit tickers, each in registration order whatever order
// the stages were registered in, all called with the tick's end time.
func TestEngineTickerOrderAndArgs(t *testing.T) {
	e := serialEngine(time.Millisecond)
	var order []int
	var gotNow time.Duration
	var gotDt time.Duration
	e.AddCommitFunc(func(now, dt time.Duration) { order = append(order, 4) })
	e.Domain(0).AddFunc(0, func(now, dt time.Duration) { order = append(order, 2); gotNow, gotDt = now, dt })
	e.Domain(0).AddFunc(0, func(now, dt time.Duration) { order = append(order, 3) })
	e.AddPreFunc(func(now, dt time.Duration) { order = append(order, 1) })
	e.Step()
	if fmt.Sprint(order) != "[1 2 3 4]" {
		t.Fatalf("ticker order %v", order)
	}
	if gotNow != time.Millisecond || gotDt != time.Millisecond {
		t.Fatalf("ticker args now=%v dt=%v", gotNow, gotDt)
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := serialEngine(time.Millisecond)
	e.RunUntil(5 * time.Millisecond)
	if e.Now() != 5*time.Millisecond {
		t.Fatalf("RunUntil landed at %v", e.Now())
	}
	e.RunUntil(3 * time.Millisecond) // in the past: no-op
	if e.Now() != 5*time.Millisecond {
		t.Fatalf("RunUntil moved backwards to %v", e.Now())
	}
}

func TestFairShareUnderloaded(t *testing.T) {
	alloc := FairShareInto(nil, 100, []float64{10, 20, 30})
	want := []float64{10, 20, 30}
	for i := range want {
		if alloc[i] != want[i] {
			t.Fatalf("alloc = %v; want %v", alloc, want)
		}
	}
}

func TestFairShareOverloadedEqualSplit(t *testing.T) {
	alloc := FairShareInto(nil, 90, []float64{100, 100, 100})
	for i, a := range alloc {
		if math.Abs(a-30) > 1e-9 {
			t.Fatalf("alloc[%d] = %v; want 30", i, a)
		}
	}
}

func TestFairShareWaterFilling(t *testing.T) {
	// Small demand fully satisfied; the rest split the remainder.
	alloc := FairShareInto(nil, 100, []float64{10, 200, 200})
	if alloc[0] != 10 {
		t.Fatalf("small claim got %v; want 10", alloc[0])
	}
	if math.Abs(alloc[1]-45) > 1e-9 || math.Abs(alloc[2]-45) > 1e-9 {
		t.Fatalf("large claims got %v, %v; want 45 each", alloc[1], alloc[2])
	}
}

func TestFairShareZeroAndNegativeDemands(t *testing.T) {
	alloc := FairShareInto(nil, 100, []float64{0, -5, 50})
	if alloc[0] != 0 || alloc[1] != 0 {
		t.Fatalf("non-positive demands allocated: %v", alloc)
	}
	if alloc[2] != 50 {
		t.Fatalf("positive demand got %v; want 50", alloc[2])
	}
}

func TestFairShareZeroCapacity(t *testing.T) {
	alloc := FairShareInto(nil, 0, []float64{1, 2})
	if alloc[0] != 0 || alloc[1] != 0 {
		t.Fatalf("zero capacity allocated %v", alloc)
	}
}

// TestFairShareIntoReusesDst: the into-dst form overwrites whatever dst
// held (a stale larger allocation, non-positive demands that must read 0),
// resizes it to the demands, and allocates only when dst is too small.
func TestFairShareIntoReusesDst(t *testing.T) {
	dst := FairShareInto(nil, 100, []float64{10, 200, 200, 7})
	got := FairShareInto(dst, 100, []float64{0, -5, 50})
	if len(got) != 3 || got[0] != 0 || got[1] != 0 || got[2] != 50 {
		t.Fatalf("reused dst = %v; want [0 0 50]", got)
	}
	if &got[0] != &dst[0] {
		t.Fatal("dst with room was not reused")
	}
	demands := []float64{60, 60, 5}
	if allocs := testing.AllocsPerRun(100, func() { got = FairShareInto(got, 1000, demands) }); allocs != 0 {
		t.Fatalf("undersubscribed FairShareInto allocates %.1f objects with a dst that fits", allocs)
	}
	if got := FairShareInto(got, 0, demands); got[0] != 0 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("zero capacity left stale shares: %v", got)
	}
}

// TestFairShareProperties checks the max–min invariants over random inputs.
func TestFairShareProperties(t *testing.T) {
	f := func(capRaw uint16, demandsRaw []uint16) bool {
		capacity := float64(capRaw)
		demands := make([]float64, len(demandsRaw))
		total := 0.0
		for i, d := range demandsRaw {
			demands[i] = float64(d)
			total += float64(d)
		}
		alloc := FairShareInto(nil, capacity, demands)
		if len(alloc) != len(demands) {
			return false
		}
		sum := 0.0
		for i := range alloc {
			if alloc[i] < -1e-9 || alloc[i] > demands[i]+1e-9 {
				return false // bounded by demand
			}
			sum += alloc[i]
		}
		if sum > capacity+1e-6 {
			return false // never over-allocates
		}
		if total >= capacity && capacity > 0 && sum < capacity-1e-6 {
			return false // work conserving when overloaded
		}
		// Equal demands get equal allocations.
		for i := range demands {
			for j := range demands {
				if demands[i] == demands[j] && math.Abs(alloc[i]-alloc[j]) > 1e-6 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestBytesIn(t *testing.T) {
	if got := BytesIn(8e9, time.Millisecond); got != 1e6 {
		t.Fatalf("BytesIn(8Gbps, 1ms) = %d; want 1e6", got)
	}
}

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	c := NewRNG(43)
	same := true
	a2 := NewRNG(42)
	for i := 0; i < 10; i++ {
		if a2.Uint64() != c.Uint64() {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical streams")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGIntn(t *testing.T) {
	r := NewRNG(7)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := r.Intn(10)
		if v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 10 {
		t.Fatalf("Intn(10) hit only %d values", len(seen))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	r.Intn(0)
}

func TestRNGJitterBounds(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 1000; i++ {
		v := r.Jitter(100, 0.05)
		if v < 95 || v > 105 {
			t.Fatalf("jitter out of bounds: %v", v)
		}
	}
}

func TestZeroSeedRemapped(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced zero stream")
	}
}

func TestClamp(t *testing.T) {
	for _, tc := range []struct{ v, lo, hi, want float64 }{
		{5, 0, 10, 5},
		{-1, 0, 10, 0},
		{11, 0, 10, 10},
	} {
		if got := Clamp(tc.v, tc.lo, tc.hi); got != tc.want {
			t.Fatalf("Clamp(%v,%v,%v) = %v; want %v", tc.v, tc.lo, tc.hi, got, tc.want)
		}
	}
}
