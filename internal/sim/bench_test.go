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

// TestTickAllocBudget pins the steady-state per-tick allocation cost of
// BOTH engines at its measured value: once tickers are registered and the
// worker pool is warm, a tick must not allocate — neither in the serial
// loop nor in the parallel dispatch/barrier machinery.
func TestTickAllocBudget(t *testing.T) {
	const budget = 0
	serial := NewEngine(time.Millisecond)
	for i := 0; i < 64; i++ {
		serial.Add(&workTicker{state: uint64(i)})
	}
	serial.Step() // warm
	gotSerial := testing.AllocsPerRun(200, serial.Step)
	t.Logf("serial Engine.Step allocs/op = %.2f (budget %d)", gotSerial, budget)
	if gotSerial > budget {
		t.Fatalf("serial Engine.Step allocs/op = %.2f exceeds budget %d", gotSerial, budget)
	}

	par := NewParallelEngine(time.Millisecond, 8, 2, 4, 1)
	defer par.Close()
	for i := 0; i < 8; i++ {
		d := par.Domain(i)
		for j := 0; j < 8; j++ {
			d.Add(0, &workTicker{state: uint64(i*8 + j)})
			d.Add(1, &workTicker{state: uint64(i*8+j) ^ 0xFF})
		}
	}
	par.AddCommit(&workTicker{})
	par.Step() // warm: spins up the worker pool
	gotPar := testing.AllocsPerRun(200, par.Step)
	t.Logf("ParallelEngine.Step allocs/op = %.2f (budget %d)", gotPar, budget)
	if gotPar > budget {
		t.Fatalf("ParallelEngine.Step allocs/op = %.2f exceeds budget %d", gotPar, budget)
	}
}

// BenchmarkEngineTick measures the serial engine's per-tick overhead with
// 64 registered tickers.
func BenchmarkEngineTick(b *testing.B) {
	e := NewEngine(time.Millisecond)
	for i := 0; i < 64; i++ {
		e.Add(&workTicker{state: uint64(i)})
	}
	e.Step()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkParallelEngineTick measures the parallel engine's per-tick
// overhead (dispatch + two barriers + commit) with the same 64 tickers
// spread over 8 domains.
func BenchmarkParallelEngineTick(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run("workers="+strconv.Itoa(workers), func(b *testing.B) {
			e := NewParallelEngine(time.Millisecond, 8, 2, workers, 1)
			defer e.Close()
			for i := 0; i < 8; i++ {
				d := e.Domain(i)
				for j := 0; j < 4; j++ {
					d.Add(0, &workTicker{state: uint64(i*4 + j)})
					d.Add(1, &workTicker{state: uint64(i*4+j) ^ 0xFF})
				}
			}
			e.Step()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Step()
			}
		})
	}
}
