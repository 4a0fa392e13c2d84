// Package sim provides the deterministic discrete-tick simulation engine
// underneath the reproduced testbed: a virtual clock, a tick loop, and the
// resource-allocation solvers (max–min fair share) the machine model uses
// to apportion shared CPU, memory-bus and NIC capacity among contending
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
	"fmt"
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

// Engine drives virtual time. Tickers run in registration order every
// tick, which makes runs fully deterministic.
type Engine struct {
	now     time.Duration
	dt      time.Duration
	tickers []Ticker
}

// NewEngine returns an engine with the given tick size (DefaultTick if
// dt <= 0).
func NewEngine(dt time.Duration) *Engine {
	if dt <= 0 {
		dt = DefaultTick
	}
	return &Engine{dt: dt}
}

// Add registers a ticker. Order of registration is order of execution.
func (e *Engine) Add(t Ticker) { e.tickers = append(e.tickers, t) }

// AddFunc registers a function ticker.
func (e *Engine) AddFunc(f func(now, dt time.Duration)) { e.Add(TickerFunc(f)) }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// Dt returns the tick size.
func (e *Engine) Dt() time.Duration { return e.dt }

// Step advances virtual time by one tick.
func (e *Engine) Step() {
	e.now += e.dt
	for _, t := range e.tickers {
		t.Tick(e.now, e.dt)
	}
}

// Run advances virtual time by at least d. Rounding contract: time only
// moves in whole ticks, so a d that is not a multiple of the tick size is
// rounded UP — Run(d) is exactly RunUntil(Now()+d), and Run never silently
// drops a sub-tick remainder. Run(0) and negative d are no-ops.
func (e *Engine) Run(d time.Duration) {
	if d <= 0 {
		return
	}
	e.RunUntil(e.now + d)
}

// RunUntil advances virtual time until Now() >= t.
func (e *Engine) RunUntil(t time.Duration) {
	for e.now < t {
		e.Step()
	}
}

// FairShare computes the max–min fair allocation of capacity among the
// given demands (water-filling): every demand is satisfied up to the common
// fair level, and capacity left by small demands is redistributed to large
// ones. The returned slice is parallel to demands.
//
// Invariants (property-tested):
//   - 0 <= alloc[i] <= demands[i]
//   - sum(alloc) <= capacity (+epsilon), with equality when
//     sum(demands) >= capacity (work conservation)
//   - equal demands receive equal allocations
func FairShare(capacity float64, demands []float64) []float64 {
	return FairShareInto(nil, capacity, demands)
}

// FairShareInto is FairShare writing its allocation into dst, which is
// grown only when it holds fewer than len(demands) values: a caller that
// shares every tick keeps the result and passes it back.
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

// WeightedFairShare computes max–min fairness where claimant i's fair level
// is proportional to weights[i]. A zero or negative weight receives nothing.
func WeightedFairShare(capacity float64, demands, weights []float64) []float64 {
	if len(demands) != len(weights) {
		panic(fmt.Sprintf("sim: WeightedFairShare len(demands)=%d len(weights)=%d", len(demands), len(weights)))
	}
	alloc := make([]float64, len(demands))
	if capacity <= 0 {
		return alloc
	}
	// Normalize into virtual demands d_i/w_i, water-fill a common level.
	type claim struct {
		i    int
		norm float64
	}
	var claims []claim
	totalW := 0.0
	totalD := 0.0
	for i := range demands {
		if demands[i] > 0 && weights[i] > 0 {
			claims = append(claims, claim{i, demands[i] / weights[i]})
			totalW += weights[i]
			totalD += demands[i]
		}
	}
	if totalD <= capacity {
		for _, c := range claims {
			alloc[c.i] = demands[c.i]
		}
		return alloc
	}
	sort.Slice(claims, func(a, b int) bool { return claims[a].norm < claims[b].norm })
	remaining := capacity
	remW := totalW
	for n, c := range claims {
		level := remaining / remW // allocation per unit weight
		if c.norm <= level {
			alloc[c.i] = demands[c.i]
			remaining -= demands[c.i]
			remW -= weights[c.i]
		} else {
			for m := n; m < len(claims); m++ {
				j := claims[m].i
				alloc[j] = level * weights[j]
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

// BitsPerSec returns the rate that moves the given bytes in dt.
func BitsPerSec(bytes int64, dt time.Duration) float64 {
	if dt <= 0 {
		return 0
	}
	return float64(bytes) * 8 / dt.Seconds()
}

// Mbps converts bits/s to Mbit/s.
func Mbps(bps float64) float64 { return bps / 1e6 }

// Gbps converts bits/s to Gbit/s.
func Gbps(bps float64) float64 { return bps / 1e9 }

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

// Normal returns an approximately normal sample with the given mean and
// standard deviation (Irwin–Hall sum of 12 uniforms).
func (r *RNG) Normal(mean, stddev float64) float64 {
	s := 0.0
	for i := 0; i < 12; i++ {
		s += r.Float64()
	}
	return mean + (s-6)*stddev
}

// Clamp limits v to [lo, hi].
func Clamp(v, lo, hi float64) float64 {
	return math.Min(math.Max(v, lo), hi)
}
