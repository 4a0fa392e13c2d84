package sim

import (
	"strconv"
	"testing"
	"time"
)

// workTicker is a representative no-alloc tick workload: a little integer
// mixing per tick, the shape of a machine model's hot loop.
type workTicker struct {
	state uint64
}

func (w *workTicker) Tick(now, dt time.Duration) {
	x := w.state + uint64(now)
	x ^= x >> 13
	x *= 0x2545F4914F6CDD1D
	w.state = x
}

// loadEngine registers 64 workTickers on e, spread evenly over its
// domains and both phases.
func loadEngine(e *ParallelEngine) {
	per := 32 / e.Domains()
	for i := 0; i < e.Domains(); i++ {
		d := e.Domain(i)
		for j := 0; j < per; j++ {
			d.Add(0, &workTicker{state: uint64(i*per + j)})
			d.Add(1, &workTicker{state: uint64(i*per+j) ^ 0xFF})
		}
	}
}

// TestTickAllocBudget pins the steady-state per-tick allocation cost of the
// engine at its measured value, in the cluster's default one-domain,
// one-worker shape and sharded over a warm worker pool: once tickers are
// registered, a tick must not allocate — neither in the serial loop nor in
// the parallel dispatch/barrier machinery.
func TestTickAllocBudget(t *testing.T) {
	const budget = 0
	for _, shape := range []struct{ domains, workers int }{{1, 1}, {8, 4}} {
		e := NewParallelEngine(time.Millisecond, shape.domains, 2, shape.workers, 1)
		loadEngine(e)
		e.AddCommit(&workTicker{})
		e.Step() // warm: spins up the worker pool, if any
		got := testing.AllocsPerRun(200, e.Step)
		e.Close()
		t.Logf("domains=%d workers=%d Step allocs/op = %.2f (budget %d)", shape.domains, shape.workers, got, budget)
		if got > budget {
			t.Fatalf("domains=%d workers=%d Step allocs/op = %.2f exceeds budget %d", shape.domains, shape.workers, got, budget)
		}
	}
}

// BenchmarkParallelEngineTick measures the engine's per-tick overhead with
// 64 registered tickers: on one domain (the cluster's default engine), and
// spread over 8 domains, where it pays dispatch plus two barriers.
func BenchmarkParallelEngineTick(b *testing.B) {
	for _, shape := range []struct{ domains, workers int }{{1, 1}, {8, 1}, {8, 2}, {8, 4}} {
		name := "domains=" + strconv.Itoa(shape.domains) + "/workers=" + strconv.Itoa(shape.workers)
		b.Run(name, func(b *testing.B) {
			e := NewParallelEngine(time.Millisecond, shape.domains, 2, shape.workers, 1)
			defer e.Close()
			loadEngine(e)
			e.Step()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}
