package sim

import (
	"sync"
	"time"
)

// Domain is one shard of a parallel simulation: a set of tickers that only
// touch state owned by the shard, advanced concurrently with every other
// domain inside a phase. A domain carries its own RNG stream, seeded from
// the scenario seed and the domain ID, so the amount of randomness a shard
// consumes never depends on goroutine scheduling or on what other shards do.
type Domain struct {
	id     int
	rng    *RNG
	phases [][]Ticker
}

// ID returns the domain's index in the engine (0-based, stable).
func (d *Domain) ID() int { return d.id }

// RNG returns the domain-private random stream.
func (d *Domain) RNG() *RNG { return d.rng }

// Add registers a ticker in the given phase of this domain. Tickers in the
// same (domain, phase) run sequentially in registration order; tickers in
// different domains of the same phase may run concurrently and therefore
// must not share mutable state.
func (d *Domain) Add(phase int, t Ticker) {
	d.phases[phase] = append(d.phases[phase], t)
}

// AddFunc registers a function ticker in the given phase of this domain.
func (d *Domain) AddFunc(phase int, f func(now, dt time.Duration)) {
	d.Add(phase, TickerFunc(f))
}

// ParallelEngine drives virtual time across sharded tick domains with
// deterministic two-phase semantics. Each tick runs:
//
//  1. the serial *pre* tickers (chaos schedulers, actuators) in order,
//  2. each parallel phase in turn: all domains advance concurrently on the
//     worker pool, with a barrier between phases,
//  3. the serial *commit* tickers (cross-domain merges: routing, fair-share
//     settlement, feedback flushes) in order.
//
// Determinism argument: work inside a (domain, phase) is sequential; domains
// within a phase are mutually independent by construction (the Add contract),
// so their relative execution order cannot change any state; everything that
// couples domains happens in the serial commit, which iterates in a fixed
// canonical order. Randomness comes only from per-domain streams. The result
// is byte-identical trajectories for a given seed at any worker count,
// including Workers=1, which is exactly the serial schedule.
type ParallelEngine struct {
	now     time.Duration
	dt      time.Duration
	domains []*Domain
	pre     []Ticker
	commit  []Ticker

	workers int
	started bool
	closed  bool
	work    []chan int // per-worker phase dispatch
	wg      sync.WaitGroup
	done    sync.WaitGroup // worker goroutine lifetime
}

// NewParallelEngine returns an engine with the given tick size (DefaultTick
// if dt <= 0), `domains` tick domains of `phases` parallel phases each, and
// a pool of `workers` goroutines (clamped to [1, domains]). Domain d's RNG
// is seeded from seed and d so shards draw from disjoint streams.
func NewParallelEngine(dt time.Duration, domains, phases, workers int, seed uint64) *ParallelEngine {
	if dt <= 0 {
		dt = DefaultTick
	}
	if domains < 1 {
		domains = 1
	}
	if phases < 1 {
		phases = 1
	}
	if workers < 1 {
		workers = 1
	}
	if workers > domains {
		workers = domains
	}
	e := &ParallelEngine{dt: dt, workers: workers}
	e.domains = make([]*Domain, domains)
	for i := range e.domains {
		e.domains[i] = &Domain{
			id:     i,
			rng:    NewRNG(domainSeed(seed, i)),
			phases: make([][]Ticker, phases),
		}
	}
	return e
}

// domainSeed derives a well-mixed per-domain seed from the scenario seed
// (splitmix64 finalizer over seed+id, so nearby IDs land far apart).
func domainSeed(seed uint64, id int) uint64 {
	x := seed + 0x9E3779B97F4A7C15*uint64(id+1)
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Domains returns the number of tick domains.
func (e *ParallelEngine) Domains() int { return len(e.domains) }

// Domain returns domain i.
func (e *ParallelEngine) Domain(i int) *Domain { return e.domains[i] }

// AddPre registers a serial ticker that runs before the parallel phases.
func (e *ParallelEngine) AddPre(t Ticker) { e.pre = append(e.pre, t) }

// AddPreFunc registers a serial pre-phase function ticker.
func (e *ParallelEngine) AddPreFunc(f func(now, dt time.Duration)) { e.AddPre(TickerFunc(f)) }

// AddCommit registers a serial ticker that runs after all parallel phases.
// Commit tickers own the cross-domain merge and run in registration order.
func (e *ParallelEngine) AddCommit(t Ticker) { e.commit = append(e.commit, t) }

// AddCommitFunc registers a serial commit-phase function ticker.
func (e *ParallelEngine) AddCommitFunc(f func(now, dt time.Duration)) { e.AddCommit(TickerFunc(f)) }

// Now returns the current virtual time.
func (e *ParallelEngine) Now() time.Duration { return e.now }

// Dt returns the tick size.
func (e *ParallelEngine) Dt() time.Duration { return e.dt }

// start spins up the persistent worker pool. Worker w owns domains
// w, w+workers, w+2*workers, ... and runs them in ascending ID order —
// a static partition, so no work-stealing and no scheduling-dependent
// assignment ever occurs.
func (e *ParallelEngine) start() {
	e.started = true
	e.work = make([]chan int, e.workers)
	for w := 0; w < e.workers; w++ {
		ch := make(chan int, 1)
		e.work[w] = ch
		first := w
		e.done.Add(1)
		go func() {
			defer e.done.Done()
			for phase := range ch {
				for i := first; i < len(e.domains); i += e.workers {
					d := e.domains[i]
					for _, t := range d.phases[phase] {
						t.Tick(e.now, e.dt)
					}
				}
				e.wg.Done()
			}
		}()
	}
}

// Step advances virtual time by one tick.
func (e *ParallelEngine) Step() {
	if e.closed {
		panic("sim: Step on closed ParallelEngine")
	}
	e.now += e.dt
	for _, t := range e.pre {
		t.Tick(e.now, e.dt)
	}
	nPhases := len(e.domains[0].phases)
	if e.workers == 1 {
		// Serial schedule: domains in ID order, no goroutines involved.
		for phase := 0; phase < nPhases; phase++ {
			for _, d := range e.domains {
				for _, t := range d.phases[phase] {
					t.Tick(e.now, e.dt)
				}
			}
		}
	} else {
		if !e.started {
			e.start()
		}
		for phase := 0; phase < nPhases; phase++ {
			e.wg.Add(e.workers)
			for _, ch := range e.work {
				ch <- phase
			}
			e.wg.Wait() // barrier between phases
		}
	}
	for _, t := range e.commit {
		t.Tick(e.now, e.dt)
	}
}

// Run advances virtual time by at least d. Rounding contract: time only
// moves in whole ticks, so a d that is not a multiple of the tick size is
// rounded UP — Run(d) is exactly RunUntil(Now()+d), and Run never silently
// drops a sub-tick remainder. Run(0) and negative d are no-ops.
func (e *ParallelEngine) Run(d time.Duration) {
	if d <= 0 {
		return
	}
	e.RunUntil(e.now + d)
}

// RunUntil advances virtual time until Now() >= t.
func (e *ParallelEngine) RunUntil(t time.Duration) {
	for e.now < t {
		e.Step()
	}
}

// Close stops the worker pool and marks the engine closed, whether or not
// it ever started workers: a later Step panics. Close is idempotent.
func (e *ParallelEngine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	if e.started {
		for _, ch := range e.work {
			close(ch)
		}
		e.done.Wait()
	}
}

// Partition splits n items (identified by index) into k contiguous,
// near-equal ranges and returns the slice of [start, end) bounds. It is the
// canonical way cluster-level code assigns machines to domains: contiguous
// ranges keep creation-order iteration inside a shard cache-friendly and
// make the assignment independent of map iteration order.
func Partition(n, k int) [][2]int {
	if k < 1 {
		k = 1
	}
	if k > n && n > 0 {
		k = n
	}
	out := make([][2]int, 0, k)
	if n <= 0 {
		return append(out, [2]int{0, 0})
	}
	base, extra := n/k, n%k
	start := 0
	for i := 0; i < k; i++ {
		size := base
		if i < extra {
			size++
		}
		out = append(out, [2]int{start, start + size})
		start += size
	}
	return out
}
