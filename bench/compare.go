package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// quartiles returns the first quartile, median and third quartile the way
// Python's statistics.quantiles(values, n=4) does (the exclusive method),
// so the spreads printed here are the ones the acceptance check computes.
func quartiles(values []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return x[0], x[0], x[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := float64(i*m - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// side is one file's runs of one workload and metric.
type side struct {
	values      []float64
	q1, med, q3 float64
}

func newSide(values []float64) side {
	s := side{values: values}
	s.q1, s.med, s.q3 = quartiles(values)
	return s
}

// spread is the interquartile distance as a share of the median.
func (s side) spread() float64 { return ratio(s.q3-s.q1, s.med) }

// verdict judges side b (the change) against side a (the parent) for one
// metric. Spread wider than the bound on either side leaves the pairing
// unresolved; b is worse when its median is worse than a's by more than
// the bound; it is better only when its median is better by more than the
// distance between a's quartiles and it wins at least nine tenths of the
// pairs (runs paired in file order, ties counting for neither).
func verdict(a, b side, spec metricSpec) string {
	if len(a.values) == 0 || len(b.values) == 0 {
		return "missing"
	}
	if a.spread() > spec.Bound || b.spread() > spec.Bound {
		return "unresolved"
	}
	gain := b.med - a.med // positive = b is better
	if spec.Better == "lower" {
		gain = -gain
	}
	if gain < -spec.Bound*a.med {
		return "worse"
	}
	wins, pairs := 0, min(len(a.values), len(b.values))
	for i := 0; i < pairs; i++ {
		d := b.values[i] - a.values[i]
		if spec.Better == "lower" {
			d = -d
		}
		if d > 0 {
			wins++
		}
	}
	if gain > a.q3-a.q1 && float64(wins) >= 0.9*float64(pairs) {
		return "better"
	}
	return "unchanged"
}

// readRuns loads the untraced runs of an -out file, by workload and
// end-to-end metric, in file order.
func readRuns(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("compare: %w", err)
	}
	defer f.Close()
	runs := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ln line
		if err := json.Unmarshal(sc.Bytes(), &ln); err != nil {
			return nil, fmt.Errorf("compare: %s line %d: %w", path, n, err)
		}
		if ln.Record.Trace {
			continue
		}
		byMetric := runs[ln.Record.Workload]
		if byMetric == nil {
			byMetric = make(map[string][]float64)
			runs[ln.Record.Workload] = byMetric
		}
		for name, m := range ln.Result.Metrics {
			byMetric[name] = append(byMetric[name], m.Value)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("compare: read %s: %w", path, err)
	}
	return runs, nil
}

// compareFiles prints one row per workload and end-to-end metric and
// reports whether any row is worse or unresolved.
func compareFiles(w io.Writer, pathA, pathB string) (bad bool, err error) {
	a, err := readRuns(pathA)
	if err != nil {
		return false, err
	}
	b, err := readRuns(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tn\ta q1\ta median\ta q3\tb q1\tb median\tb q3\tbound\tverdict")
	for _, wl := range workloads {
		for _, spec := range endToEnd {
			sa, sb := newSide(a[wl.name][spec.Name]), newSide(b[wl.name][spec.Name])
			v := verdict(sa, sb, spec)
			if v == "worse" || v == "unresolved" {
				bad = true
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d/%d\t%.5g\t%.5g\t%.5g\t%.5g\t%.5g\t%.5g\t%.0f%%\t%s\n",
				wl.name, spec.Name, spec.Unit, len(sa.values), len(sb.values),
				sa.q1, sa.med, sa.q3, sb.q1, sb.med, sb.q3, spec.Bound*100, v)
		}
	}
	return bad, tw.Flush()
}
