package experiments

import (
	"fmt"
	"runtime"
	"strings"
	"syscall"
	"time"

	"perfsight/internal/middlebox"
	"perfsight/internal/wire"
)

// Fig16Point is one (query frequency, CPU usage) measurement.
type Fig16Point struct {
	FrequencyHz float64
	CPUPercent  float64
}

// Fig16Result reproduces Figure 16: the CPU cost of polling the agent's
// full element set at increasing frequency, over the real TCP path. The
// paper measures under 0.5% at 10 Hz and a few percent at 180 Hz.
type Fig16Result struct {
	Points []Fig16Point
}

// ShapeCorrect checks increasing cost with a cheap low end. The bound is
// generous because wall-clock CPU accounting is noisy under coverage
// instrumentation and loaded CI machines.
func (r *Fig16Result) ShapeCorrect() bool {
	if len(r.Points) < 3 {
		return false
	}
	if r.Points[0].CPUPercent > 5 {
		return false
	}
	return r.Points[len(r.Points)-1].CPUPercent >= r.Points[0].CPUPercent
}

// String renders the curve.
func (r *Fig16Result) String() string {
	var b strings.Builder
	b.WriteString("Figure 16: query frequency vs agent CPU usage\n")
	b.WriteString("frequency (Hz)  CPU usage (%)\n")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%14.0f  %13.3f\n", p.FrequencyHz, p.CPUPercent)
	}
	return b.String()
}

// RunFig16 polls a live agent over TCP at each frequency for the given
// wall-clock window and reports process CPU usage attributable to the
// polling (rusage delta over wall time).
func RunFig16(freqs []float64, window time.Duration) (*Fig16Result, error) {
	if len(freqs) == 0 {
		freqs = []float64{1, 10, 20, 40, 80, 120, 180}
	}
	if window <= 0 {
		window = time.Second
	}

	l := NewLab(time.Millisecond)
	l.DefaultMachine("m0")
	sink := middlebox.NewSink("m0/vm0/app", 1e9)
	l.C.PlaceVM("m0", "vm0", 1.0, 1e9, sink)
	if err := l.BuildAgents(); err != nil {
		return nil, err
	}
	defer l.Close()
	client, err := l.ServeTCP("m0")
	if err != nil {
		return nil, err
	}

	res := &Fig16Result{}
	for _, f := range freqs {
		interval := time.Duration(float64(time.Second) / f)
		// Collect garbage outside the window so GC from unrelated work does
		// not pollute the rusage delta.
		runtime.GC()
		start := time.Now()
		cpu0, err := processCPU()
		if err != nil {
			return nil, err
		}
		deadline := start.Add(window)
		next := start
		for time.Now().Before(deadline) {
			if _, err := client.Query(wire.Query{All: true}); err != nil {
				return nil, fmt.Errorf("fig16 at %.0f Hz: %w", f, err)
			}
			next = next.Add(interval)
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
		}
		cpu1, err := processCPU()
		if err != nil {
			return nil, err
		}
		wall := time.Since(start)
		res.Points = append(res.Points, Fig16Point{
			FrequencyHz: f,
			CPUPercent:  100 * float64(cpu1-cpu0) / float64(wall),
		})
	}
	return res, nil
}

// processCPU returns the process's cumulative user+system CPU time.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	user := time.Duration(ru.Utime.Sec)*time.Second + time.Duration(ru.Utime.Usec)*time.Microsecond
	sys := time.Duration(ru.Stime.Sec)*time.Second + time.Duration(ru.Stime.Usec)*time.Microsecond
	return user + sys, nil
}
