package experiments

import (
	"fmt"
	"math"
	"strings"
	"time"

	"perfsight/internal/cluster"
	"perfsight/internal/middlebox"
	"perfsight/internal/stream"
)

// Table2Cell is one (condition, instrumentation) measurement series.
type Table2Cell struct {
	MeanMbps float64
	Variance float64
}

// Table2Result reproduces Table 2: proxy throughput with and without time
// counters, in the ReadBlocked regime (client rate-limited) and the
// Overloaded regime (client unconstrained, proxy CPU-bound). The paper's
// overhead is under 2%.
type Table2Result struct {
	BlockedWithout, BlockedWith       Table2Cell
	OverloadedWithout, OverloadedWith Table2Cell
	Runs                              int
}

// OverheadBlocked returns the throughput cost of time counters when the
// proxy is ReadBlocked.
func (r *Table2Result) OverheadBlocked() float64 {
	if r.BlockedWithout.MeanMbps == 0 {
		return 0
	}
	return 1 - r.BlockedWith.MeanMbps/r.BlockedWithout.MeanMbps
}

// OverheadOverloaded returns the cost when the proxy is Overloaded.
func (r *Table2Result) OverheadOverloaded() float64 {
	if r.OverloadedWithout.MeanMbps == 0 {
		return 0
	}
	return 1 - r.OverloadedWith.MeanMbps/r.OverloadedWithout.MeanMbps
}

// Correct checks the paper's bound: overhead under 2% in both regimes.
func (r *Table2Result) Correct() bool {
	return math.Abs(r.OverheadBlocked()) < 0.02 && math.Abs(r.OverheadOverloaded()) < 0.02 &&
		r.BlockedWithout.MeanMbps > 0 && r.OverloadedWithout.MeanMbps > 0
}

// String renders the table.
func (r *Table2Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: throughput with/without time counters (%d runs each)\n", r.Runs)
	b.WriteString("experiment                      mean (Mbps)   variance\n")
	fmt.Fprintf(&b, "1: Blocked, without counters    %10.2f  %9.3f\n", r.BlockedWithout.MeanMbps, r.BlockedWithout.Variance)
	fmt.Fprintf(&b, "2: Blocked, with counters       %10.2f  %9.3f\n", r.BlockedWith.MeanMbps, r.BlockedWith.Variance)
	fmt.Fprintf(&b, "3: Overloaded, without counters %10.2f  %9.3f\n", r.OverloadedWithout.MeanMbps, r.OverloadedWithout.Variance)
	fmt.Fprintf(&b, "4: Overloaded, with counters    %10.2f  %9.3f\n", r.OverloadedWith.MeanMbps, r.OverloadedWith.Variance)
	fmt.Fprintf(&b, "overhead: blocked %.2f%%, overloaded %.2f%% (paper: <2%%)\n",
		r.OverheadBlocked()*100, r.OverheadOverloaded()*100)
	return b.String()
}

// proxyRun measures one client->proxy->server upload's throughput.
// blocked selects the rate-limited (ReadBlocked) regime; timers toggles
// the proxy's I/O time counters; run varies the client jitter seed.
func proxyRun(mb middlebox.MboxKind, blocked, timers bool, run int) float64 {
	l := NewLab(time.Millisecond)
	defer l.Close()
	l.DefaultMachine("m0")
	l.C.AddHost("server", 0)
	out := l.C.Connect("p-out", cluster.VMEndpoint("m0", "vm-p"), cluster.HostEndpoint("server"), stream.Config{})

	app := middlebox.NewOfKind(mb, "m0/vm-p/app", 1e9, middlebox.ConnOutput{C: out})
	app.SetTimeCountersEnabled(timers)
	// A modest vCPU allocation makes the unconstrained regime genuinely
	// CPU-bound (the paper's Overloaded case saturates near 500 Mbps).
	l.C.PlaceVM("m0", "vm-p", 0.45, 1e9, app)

	client := l.C.AddHost("client", 0)
	rate := 0.0
	if blocked {
		rate = 42e6 // the paper's ~42 Mbps blocked regime
	}
	for j := 0; j < 4; j++ {
		in := l.C.Connect(flowID(fmt.Sprintf("c-in-%d-%d", run, j)),
			cluster.HostEndpoint("client"), cluster.VMEndpoint("m0", "vm-p"), stream.Config{})
		client.AddSource(in, rate/4)
	}

	l.Run(2 * time.Second) // warm up
	before := out.DeliveredBytes()
	l.Run(3 * time.Second)
	return float64(out.DeliveredBytes()-before) * 8 / 3 / 1e6
}

// series runs N measurements and returns mean and variance.
func series(mb middlebox.MboxKind, blocked, timers bool, runs int) Table2Cell {
	var xs []float64
	for i := 0; i < runs; i++ {
		xs = append(xs, proxyRun(mb, blocked, timers, i))
	}
	var mean float64
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	var v float64
	for _, x := range xs {
		v += (x - mean) * (x - mean)
	}
	if len(xs) > 1 {
		v /= float64(len(xs) - 1)
	}
	return Table2Cell{MeanMbps: mean, Variance: v}
}

// RunTable2 executes the four series. The paper repeats each 100 times;
// runs scales that down for CI use.
func RunTable2(runs int) (*Table2Result, error) {
	if runs <= 0 {
		runs = 10
	}
	return &Table2Result{
		BlockedWithout:    series(middlebox.KindProxy, true, false, runs),
		BlockedWith:       series(middlebox.KindProxy, true, true, runs),
		OverloadedWithout: series(middlebox.KindProxy, false, false, runs),
		OverloadedWith:    series(middlebox.KindProxy, false, true, runs),
		Runs:              runs,
	}, nil
}

// Fig15Row is one middlebox type's normalized instrumented throughput.
type Fig15Row struct {
	Name       string
	Normalized float64 // instrumented/uninstrumented, overloaded regime
}

// Fig15Result reproduces Figure 15: across middlebox types the time-counter
// overhead stays under 5%.
type Fig15Result struct {
	Rows []Fig15Row
	Runs int
}

// Correct checks the paper's 5% bound.
func (r *Fig15Result) Correct() bool {
	for _, row := range r.Rows {
		if row.Normalized < 0.95 || row.Normalized > 1.02 {
			return false
		}
	}
	return len(r.Rows) >= 5
}

// String renders the normalized-throughput chart data.
func (r *Fig15Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 15: time-counter overhead across middlebox types (%d runs each)\n", r.Runs)
	b.WriteString("middlebox   normalized throughput (%)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-10s  %6.2f\n", row.Name, row.Normalized*100)
	}
	b.WriteString("(paper: all above 95%)\n")
	return b.String()
}

// RunFig15 compares instrumented vs uninstrumented throughput for five
// middlebox types in the overloaded regime.
func RunFig15(runs int) (*Fig15Result, error) {
	if runs <= 0 {
		runs = 5
	}
	kinds := []struct {
		name string
		kind middlebox.MboxKind
	}{
		{"Proxy", middlebox.KindProxy},
		{"LB", middlebox.KindLB},
		{"Cache", middlebox.KindCache},
		{"RE", middlebox.KindRE},
		{"IPS", middlebox.KindIPS},
	}
	res := &Fig15Result{Runs: runs}
	for _, k := range kinds {
		with := series(k.kind, false, true, runs)
		without := series(k.kind, false, false, runs)
		norm := 1.0
		if without.MeanMbps > 0 {
			norm = with.MeanMbps / without.MeanMbps
		}
		res.Rows = append(res.Rows, Fig15Row{Name: k.name, Normalized: norm})
	}
	return res, nil
}
