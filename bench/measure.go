package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// cpuNow returns the process's cumulative user+system CPU time. The sum
// is exact on Linux (it is the scheduler's run-time total); only the
// user/system split is tick-sampled, so the two are never reported apart.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic("getrusage: " + err.Error()) // cannot fail for RUSAGE_SELF
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// allocsNow returns the cumulative count of heap objects allocated,
// exactly. It stops the world for some 10 µs to flush every P's allocation
// cache; runtime/metrics would not, but counts a small object only when
// the span it came from is used up, hundreds at a time, which smears counts
// across the intervals they are meant to tell apart. Callers read it
// outside the intervals they time.
func allocsNow() uint64 {
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return st.Mallocs
}

// heapLiveMB forces a collection and returns the live heap in MB. Callers
// keep the workload's structures reachable across the call.
func heapLiveMB() float64 {
	runtime.GC()
	runtime.GC() // the second cycle frees what the first one's finalizers released
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.HeapAlloc) / 1e6
}

// meter accumulates wall time, CPU time and allocations over the parts of
// a run that count, so work between them (the sim step between sweeps)
// is excluded.
type meter struct {
	wall   time.Duration
	cpu    time.Duration
	allocs uint64

	t0 time.Time
	c0 time.Duration
	a0 uint64
}

// start opens an interval. The clocks are read innermost, so that reading
// the allocation count is in neither.
func (m *meter) start() {
	m.a0 = allocsNow()
	m.c0 = cpuNow()
	m.t0 = time.Now()
}

// stop closes the interval opened by start and returns its wall time.
func (m *meter) stop() time.Duration {
	d := time.Since(m.t0)
	m.cpu += cpuNow() - m.c0
	m.allocs += allocsNow() - m.a0
	m.wall += d
	return d
}

// sliceLen is how much measured time one slice of a run covers.
const sliceLen = 500 * time.Millisecond

// slices cuts a run's measured time into slices of sliceLen and keeps each
// slice's rates, so that a run reports its median slice. The box is a
// shared one: when the host takes a CPU away for a moment, the slices it
// hits read slow — in CPU time too, which the guest cannot tell from time
// stolen — and the median does not move, where a whole-run total would.
// Allocations are a count, which nothing outside the process disturbs, so
// they are reported from the run's totals.
type slices struct {
	m   meter // totals over every start/stop interval
	ops float64

	mark struct { // totals at the last cut
		wall, cpu time.Duration
		ops       float64
	}
	opsPerS, cpuUS samples // one value per slice
}

func (s *slices) start() { s.m.start() }

// stop closes the interval opened by start, credits it with ops, and cuts
// a slice once sliceLen of measured time has gathered.
func (s *slices) stop(ops float64) time.Duration {
	d := s.m.stop()
	s.ops += ops
	if s.m.wall-s.mark.wall >= sliceLen {
		s.cut()
	}
	return d
}

func (s *slices) cut() {
	ops := s.ops - s.mark.ops
	if ops > 0 {
		s.opsPerS = append(s.opsPerS, ops/(s.m.wall-s.mark.wall).Seconds())
		s.cpuUS = append(s.cpuUS, us(s.m.cpu-s.mark.cpu)/ops)
	}
	s.mark.wall, s.mark.cpu, s.mark.ops = s.m.wall, s.m.cpu, s.ops
}

// medians returns the median slice's rates. A run too short to fill one
// slice reports its totals.
func (s *slices) medians() (opsPerS, cpuUS float64) {
	if len(s.opsPerS) == 0 {
		s.cut()
	}
	return s.opsPerS.sorted().quantile(0.5), s.cpuUS.sorted().quantile(0.5)
}

// report sets the three per-op metrics.
func (s *slices) report(out *outcome) {
	opsPerS, cpuUS := s.medians()
	out.samples["slices"] = describe(s.opsPerS, "1/s")
	out.set("ops_per_s", opsPerS)
	out.set("cpu_us_per_op", cpuUS)
	out.set("allocs_per_op", ratio(float64(s.m.allocs), s.ops))
}

// setUp builds the system under test n times, discarding every instance
// but the last, and returns that one with the seconds each build took:
// setup_s is their median, so one slow build does not set it.
func setUp[T any](n int, build func() (T, error), discard func(T)) (last T, seconds samples, err error) {
	for i := 0; i < n; i++ {
		if i > 0 {
			discard(last)
		}
		t := time.Now()
		if last, err = build(); err != nil {
			return last, nil, err
		}
		seconds = append(seconds, time.Since(t).Seconds())
	}
	return last, seconds, nil
}

// samples is a set of timings in one unit, reduced to percentiles.
type samples []float64

func (s samples) sorted() samples {
	out := append(samples(nil), s...)
	sort.Float64s(out)
	return out
}

// quantile returns the q-quantile (0..1) of sorted samples by linear
// interpolation; 0 for an empty set.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tail names the highest of p90/p99/p99.9 that still has at least ten
// samples beyond it, and its value; ("", 0) below 100 samples.
func (s samples) tail() (name string, value float64) {
	for _, t := range []struct {
		name string
		q    float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p90", 0.90}} {
		if float64(len(s))*(1-t.q) >= 10 {
			return t.name, s.quantile(t.q)
		}
	}
	return "", 0
}

// sampleInfo is the run record's note on one percentile-bearing metric.
type sampleInfo struct {
	Count    int     `json:"count"`
	P50      float64 `json:"p50"`
	Tail     string  `json:"tail,omitempty"`
	TailVal  float64 `json:"tail_value,omitempty"`
	TailUnit string  `json:"unit"`
}

func describe(s samples, unit string) sampleInfo {
	ss := s.sorted()
	name, v := ss.tail()
	return sampleInfo{Count: len(ss), P50: ss.quantile(0.5), Tail: name, TailVal: v, TailUnit: unit}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// ratio is a/b, and 0 when b is 0 (a layer the workload never entered).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
