package sim

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// TestIntnUnbiased checks the Lemire bounded-rejection Intn: values stay in
// range for awkward n (including n near 2^63 where plain modulo skews
// badly), and small-n draws are uniform within tolerance.
func TestIntnUnbiased(t *testing.T) {
	r := NewRNG(42)
	for _, n := range []int{1, 2, 3, 7, 1000, 1 << 30, (1 << 62) + 12345} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
	// Uniformity: 10 buckets, 200k draws, each bucket within 5% of expected.
	const n, draws = 10, 200000
	var counts [n]int
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for b, c := range counts {
		if dev := float64(c)/want - 1; dev > 0.05 || dev < -0.05 {
			t.Fatalf("bucket %d: count %d deviates %.1f%% from expected %.0f", b, c, dev*100, want)
		}
	}
	// The rejection loop must still terminate instantly for n = 1.
	if v := r.Intn(1); v != 0 {
		t.Fatalf("Intn(1) = %d, want 0", v)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

// TestEngineRunRoundsUp pins the documented rounding contract: Run(d)
// advances by whole ticks, rounding a sub-tick remainder UP, and agrees
// with RunUntil.
func TestEngineRunRoundsUp(t *testing.T) {
	e := serialEngine(time.Millisecond)
	e.Run(2500 * time.Microsecond) // not a multiple of dt
	if e.Now() != 3*time.Millisecond {
		t.Fatalf("Run(2.5ms): now = %s, want 3ms (round up to whole ticks)", e.Now())
	}
	e.Run(0)
	e.Run(-time.Second)
	if e.Now() != 3*time.Millisecond {
		t.Fatalf("Run(<=0) must be a no-op, now = %s", e.Now())
	}
	// Run(d) ≡ RunUntil(Now()+d) for a fresh engine with the same schedule.
	e2 := serialEngine(time.Millisecond)
	e2.RunUntil(2500 * time.Microsecond)
	if e2.Now() != 3*time.Millisecond {
		t.Fatalf("RunUntil(2.5ms): now = %s, want 3ms", e2.Now())
	}
}

// shardedScenario builds a ParallelEngine whose domains run a two-phase
// toy workload (phase 0 produces from the domain RNG, phase 1 mixes) with
// a serial commit that folds the shards into a shared trajectory hash.
// Returns the engine and the hash accumulator.
func shardedScenario(domains, workers int, seed uint64) (*ParallelEngine, *uint64, []*uint64) {
	e := NewParallelEngine(time.Millisecond, domains, 2, workers, seed)
	hash := new(uint64)
	shard := make([]*uint64, domains)
	for i := 0; i < domains; i++ {
		d := e.Domain(i)
		acc := new(uint64)
		shard[i] = acc
		d.AddFunc(0, func(now, dt time.Duration) {
			*acc += d.RNG().Uint64() + uint64(d.RNG().Intn(1000))
		})
		d.AddFunc(1, func(now, dt time.Duration) {
			*acc ^= *acc >> 13
			*acc *= 0x9E3779B97F4A7C15
		})
	}
	e.AddCommitFunc(func(now, dt time.Duration) {
		for _, acc := range shard {
			*hash = (*hash ^ *acc) * 0x100000001B3
		}
	})
	return e, hash, shard
}

// TestParallelEngineDeterministic asserts the core tentpole property: the
// same seed yields a byte-identical trajectory at any worker count,
// including the pure-serial 1-worker schedule.
func TestParallelEngineDeterministic(t *testing.T) {
	const domains = 8
	const seed = 0xDEADBEEF
	run := func(workers int) uint64 {
		e, hash, _ := shardedScenario(domains, workers, seed)
		defer e.Close()
		e.Run(200 * time.Millisecond)
		return *hash
	}
	want := run(1)
	for _, w := range []int{2, 3, 4, 8} {
		if got := run(w); got != want {
			t.Fatalf("workers=%d: trajectory hash %#x != serial hash %#x", w, got, want)
		}
	}
}

// TestParallelEnginePhaseBarrier asserts no domain enters phase 1 before
// every domain finished phase 0 within the same tick.
func TestParallelEnginePhaseBarrier(t *testing.T) {
	const domains = 8
	e := NewParallelEngine(time.Millisecond, domains, 2, 4, 1)
	defer e.Close()
	var inPhase0 atomic.Int64
	var violations atomic.Int64
	for i := 0; i < domains; i++ {
		d := e.Domain(i)
		d.AddFunc(0, func(now, dt time.Duration) { inPhase0.Add(1) })
		d.AddFunc(1, func(now, dt time.Duration) {
			if inPhase0.Load() != domains {
				violations.Add(1)
			}
		})
	}
	e.AddCommitFunc(func(now, dt time.Duration) { inPhase0.Store(0) })
	e.Run(100 * time.Millisecond)
	if v := violations.Load(); v != 0 {
		t.Fatalf("%d phase-barrier violations: phase 1 ran before all domains finished phase 0", v)
	}
}

// TestParallelEngineConcurrency drives many ticks under -race with shared
// commit state and per-domain mutable state to let the race detector prove
// the phase/commit discipline is sound.
func TestParallelEngineConcurrency(t *testing.T) {
	e, hash, shard := shardedScenario(16, 4, 7)
	defer e.Close()
	e.Run(300 * time.Millisecond)
	if *hash == 0 {
		t.Fatal("trajectory hash unexpectedly zero")
	}
	for i, acc := range shard {
		if *acc == 0 {
			t.Fatalf("domain %d never ticked", i)
		}
	}
}

// TestDomainRNGStreamsDisjoint checks per-domain streams are decorrelated:
// distinct domains seeded from the same scenario seed draw different
// sequences, and the same (seed, domain) always draws the same sequence.
func TestDomainRNGStreamsDisjoint(t *testing.T) {
	a := NewParallelEngine(0, 4, 1, 1, 99)
	b := NewParallelEngine(0, 4, 1, 1, 99)
	defer a.Close()
	defer b.Close()
	seen := map[uint64]int{}
	for i := 0; i < 4; i++ {
		va, vb := a.Domain(i).RNG().Uint64(), b.Domain(i).RNG().Uint64()
		if va != vb {
			t.Fatalf("domain %d: same seed drew %#x vs %#x", i, va, vb)
		}
		if prev, dup := seen[va]; dup {
			t.Fatalf("domains %d and %d share a stream", prev, i)
		}
		seen[va] = i
	}
}

func TestPartition(t *testing.T) {
	for _, tc := range []struct{ n, k int }{{0, 4}, {1, 4}, {5, 2}, {2000, 7}, {16, 16}, {3, 100}} {
		parts := Partition(tc.n, tc.k)
		covered := 0
		prevEnd := 0
		for _, p := range parts {
			if p[0] != prevEnd {
				t.Fatalf("Partition(%d,%d): gap before %v", tc.n, tc.k, p)
			}
			if p[1] < p[0] {
				t.Fatalf("Partition(%d,%d): inverted range %v", tc.n, tc.k, p)
			}
			covered += p[1] - p[0]
			prevEnd = p[1]
		}
		if covered != tc.n {
			t.Fatalf("Partition(%d,%d) covers %d items", tc.n, tc.k, covered)
		}
		for _, p := range parts {
			if size := p[1] - p[0]; tc.n >= tc.k && (size < tc.n/tc.k || size > tc.n/tc.k+1) {
				t.Fatalf("Partition(%d,%d): unbalanced range %v", tc.n, tc.k, p)
			}
		}
	}
}

func TestChaosFiresInOrder(t *testing.T) {
	c := NewChaos(1)
	var fired []string
	rec := func(name string) func(time.Duration) {
		return func(now time.Duration) { fired = append(fired, fmt.Sprintf("%s@%s", name, now)) }
	}
	c.At(5*time.Millisecond, "b", rec("b"))
	c.At(2*time.Millisecond, "a", rec("a"))
	c.Window(5*time.Millisecond, 8*time.Millisecond, "w", rec("w+"), rec("w-"))
	e := serialEngine(time.Millisecond)
	e.AddPre(c)
	e.Run(10 * time.Millisecond)
	want := "[a@2ms b@5ms w+@5ms w-@8ms]"
	if got := fmt.Sprint(fired); got != want {
		t.Fatalf("chaos fired %s, want %s", got, want)
	}
	if c.Pending() != 0 || c.Fired() != 4 {
		t.Fatalf("pending=%d fired=%d, want 0/4", c.Pending(), c.Fired())
	}
}

// TestChaosLateSchedule: a fault scheduled for a time already in the past
// fires on the next tick, not never.
func TestChaosLateSchedule(t *testing.T) {
	c := NewChaos(1)
	e := serialEngine(time.Millisecond)
	e.AddPre(c)
	e.Run(5 * time.Millisecond)
	var at time.Duration
	c.At(time.Millisecond, "late", func(now time.Duration) { at = now })
	e.Run(time.Millisecond)
	if at != 6*time.Millisecond {
		t.Fatalf("late fault fired at %s, want 6ms (next tick)", at)
	}
}

func TestChaosJitteredDeterministic(t *testing.T) {
	a, b := NewChaos(7), NewChaos(7)
	for i := 0; i < 10; i++ {
		ja, jb := a.Jittered(time.Second, 0.2), b.Jittered(time.Second, 0.2)
		if ja != jb {
			t.Fatalf("Jittered diverged for equal seeds: %s vs %s", ja, jb)
		}
		if ja < 800*time.Millisecond || ja > 1200*time.Millisecond {
			t.Fatalf("Jittered(1s, 0.2) = %s out of ±20%%", ja)
		}
	}
}
