// Package sim provides the deterministic discrete-tick simulation engine
// underneath the reproduced testbed: a virtual clock and two-phase tick
// loop (ParallelEngine, which at one domain and one worker is the plain
// serial loop), and the max–min fair-share solver the machine model uses
// to apportion shared CPU and memory-bus capacity among contending
// dataplane elements.
//
// The paper ran on a real Linux/OVS/QEMU testbed; this engine is the
// substitution (see DESIGN.md §2) that lets the same instrumentation,
// agents and diagnosis algorithms run against a faithful, seedable model of
// that testbed. Virtual time is a time.Duration since scenario start and
// advances in fixed ticks (default 1 ms), small relative to the multi-second
// phenomena in the paper's figures.
package sim

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"time"
)

// DefaultTick is the default virtual-time step.
const DefaultTick = time.Millisecond

// Ticker is a component advanced by the engine each tick. Tick is called
// with the time at the *end* of the step and the step length.
type Ticker interface {
	Tick(now, dt time.Duration)
}

// TickerFunc adapts a function to the Ticker interface.
type TickerFunc func(now, dt time.Duration)

// Tick implements Ticker.
func (f TickerFunc) Tick(now, dt time.Duration) { f(now, dt) }

// FairShareInto computes the max–min fair allocation of capacity among the
// given demands (water-filling): every demand is satisfied up to the common
// fair level, and capacity left by small demands is redistributed to large
// ones. The allocation, parallel to demands, is written into dst, which is
// grown only when it holds fewer than len(demands) values: a caller that
// shares every tick keeps the result and passes it back (nil is fine).
//
// Invariants (property-tested):
//   - 0 <= alloc[i] <= demands[i]
//   - sum(alloc) <= capacity (+epsilon), with equality when
//     sum(demands) >= capacity (work conservation)
//   - equal demands receive equal allocations
func FairShareInto(dst []float64, capacity float64, demands []float64) []float64 {
	alloc := slices.Grow(dst[:0], len(demands))[:len(demands)]
	clear(alloc)
	if capacity <= 0 || len(demands) == 0 {
		return alloc
	}
	total := 0.0
	for _, d := range demands {
		if d > 0 {
			total += d
		}
	}
	if total <= capacity {
		for i, d := range demands {
			if d > 0 {
				alloc[i] = d
			}
		}
		return alloc
	}
	// Water-filling over demands sorted ascending.
	idx := make([]int, 0, len(demands))
	for i, d := range demands {
		if d > 0 {
			idx = append(idx, i)
		}
	}
	sort.Slice(idx, func(a, b int) bool { return demands[idx[a]] < demands[idx[b]] })
	remaining := capacity
	for n := 0; n < len(idx); n++ {
		share := remaining / float64(len(idx)-n)
		i := idx[n]
		if demands[i] <= share {
			alloc[i] = demands[i]
			remaining -= demands[i]
		} else {
			// All remaining demands exceed the equal share; split evenly.
			for m := n; m < len(idx); m++ {
				alloc[idx[m]] = share
			}
			return alloc
		}
	}
	return alloc
}

// BytesIn returns how many whole bytes a rate (bits per second) moves in dt.
func BytesIn(bps float64, dt time.Duration) int64 {
	return int64(bps / 8 * dt.Seconds())
}

// RNG is a small deterministic pseudo-random generator (xorshift64*),
// used instead of math/rand so scenario runs are stable across Go versions.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed (0 is remapped).
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next pseudo-random value.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Float64 returns a value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform value in [0, n). It uses Lemire's bounded
// rejection method (multiply-shift with a rare retry) rather than a plain
// modulo, which would skew low values whenever 2^64 is not a multiple of n.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	un := uint64(n)
	hi, lo := bits.Mul64(r.Uint64(), un)
	if lo < un {
		// Reject the biased fringe: values below 2^64 mod n.
		thresh := -un % un
		for lo < thresh {
			hi, lo = bits.Mul64(r.Uint64(), un)
		}
	}
	return int(hi)
}

// Jitter returns v scaled by a uniform factor in [1-f, 1+f].
func (r *RNG) Jitter(v, f float64) float64 {
	return v * (1 + f*(2*r.Float64()-1))
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	return math.Min(math.Max(v, lo), hi)
}
