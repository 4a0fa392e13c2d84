package sim

import (
	"sort"
	"time"
)

// Fault is one scheduled chaos event: at virtual time At (inclusive), Apply
// fires exactly once. Faults are pure state flips — the injected condition
// itself (a dead agent, a partitioned link, a skewed clock) lives in whatever
// component Apply mutates.
type Fault struct {
	At    time.Duration
	Name  string
	Apply func(now time.Duration)

	seq  int  // insertion order, tie-breaker for equal At
	done bool // fired already
}

// Chaos is a seeded, schedulable fault injector. It implements Ticker and is
// meant to run in the serial pre phase of the engine (ParallelEngine.AddPre,
// Cluster.AddPreTick), so faults always land between ticks, never inside
// one — identical placement at any domain and worker count.
//
// Randomness for fault placement comes from the injector's own RNG stream, so
// chaotic scenarios stay deterministic per seed: same seed, same fault times,
// same trajectories.
type Chaos struct {
	rng    *RNG
	faults []*Fault
	sorted bool
	fired  int
}

// NewChaos returns an injector whose schedule jitter draws from a stream
// seeded by seed.
func NewChaos(seed uint64) *Chaos {
	return &Chaos{rng: NewRNG(seed)}
}

// RNG returns the injector's private random stream (for callers that want
// seeded fault placement, e.g. picking a victim machine).
func (c *Chaos) RNG() *RNG { return c.rng }

// At schedules apply to fire at virtual time t (first tick whose end time
// is >= t).
func (c *Chaos) At(t time.Duration, name string, apply func(now time.Duration)) {
	c.faults = append(c.faults, &Fault{At: t, Name: name, Apply: apply, seq: len(c.faults)})
	c.sorted = false
}

// Window schedules a fault that applies at start and heals at stop.
func (c *Chaos) Window(start, stop time.Duration, name string, apply, heal func(now time.Duration)) {
	c.At(start, name+"/apply", apply)
	c.At(stop, name+"/heal", heal)
}

// Jittered returns t perturbed by ±frac using the injector's seeded stream,
// clamped to be non-negative. Useful for schedules that should vary between
// seeds but not between runs.
func (c *Chaos) Jittered(t time.Duration, frac float64) time.Duration {
	j := time.Duration(c.rng.Jitter(float64(t), frac))
	if j < 0 {
		return 0
	}
	return j
}

// Pending returns how many scheduled faults have not fired yet.
func (c *Chaos) Pending() int { return len(c.faults) - c.fired }

// Fired returns how many faults have fired.
func (c *Chaos) Fired() int { return c.fired }

// Tick fires every unfired fault whose At is <= now, in (At, insertion)
// order. It implements Ticker. Faults may be scheduled mid-run; one whose
// At is already in the past fires on the next tick.
func (c *Chaos) Tick(now, dt time.Duration) {
	if !c.sorted {
		sort.SliceStable(c.faults, func(a, b int) bool {
			if c.faults[a].At != c.faults[b].At {
				return c.faults[a].At < c.faults[b].At
			}
			return c.faults[a].seq < c.faults[b].seq
		})
		c.sorted = true
	}
	for _, f := range c.faults {
		if f.done || f.At > now {
			continue
		}
		f.done = true
		c.fired++
		f.Apply(now)
	}
}
