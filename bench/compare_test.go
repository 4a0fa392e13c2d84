package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

func TestQuartilesMatchPythonExclusive(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("ten values: got %v %v %v", q1, q2, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	q1, q2, q3 = quartiles([]float64{1, 2, 4, 8, 16})
	if q1 != 1.5 || q2 != 4 || q3 != 12 {
		t.Errorf("five values: got %v %v %v", q1, q2, q3)
	}
}

func TestVerdicts(t *testing.T) {
	lower := metricSpec{Name: "op_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, v := range base {
			out[i] = v * f
		}
		return out
	}
	wide := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	for _, c := range []struct {
		name string
		a, b []float64
		spec metricSpec
		want string
	}{
		{"same runs", base, base, lower, "unchanged"},
		{"5 % slower is inside the bound", base, scaled(1.05), lower, "unchanged"},
		{"20 % slower", base, scaled(1.20), lower, "worse"},
		{"20 % faster", base, scaled(0.80), lower, "better"},
		{"20 % more throughput", base, scaled(1.20), higher, "better"},
		{"20 % less throughput", base, scaled(0.80), higher, "worse"},
		{"spread wider than the bound", base, wide, lower, "unresolved"},
		{"one side has no runs", base, nil, lower, "missing"},
	} {
		if got := verdict(newSide(c.a), newSide(c.b), c.spec); got != c.want {
			t.Errorf("%s: got %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFilesReadsOutFiles(t *testing.T) {
	dir := t.TempDir()
	a, b := filepath.Join(dir, "a.jsonl"), filepath.Join(dir, "b.jsonl")
	write := func(path string, traced bool, opMS float64) {
		ln := line{Record: runRecord{Workload: "sim-fleet", Trace: traced},
			Result: result{Metrics: map[string]metricValue{"op_ms_p50": {Value: opMS, Unit: "ms"}}}}
		if err := appendLine(path, ln); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 5; i++ {
		write(a, false, 3.0+float64(i)/100)
		write(b, false, 4.0+float64(i)/100)
		write(b, true, 99) // traced runs are not compared
	}
	var buf bytes.Buffer
	bad, err := compareFiles(&buf, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !bad {
		t.Error("a third slower was not reported as bad")
	}
	var row string
	for _, l := range strings.Split(buf.String(), "\n") {
		if strings.HasPrefix(l, "sim-fleet") && strings.Contains(l, "op_ms_p50") {
			row = l
		}
	}
	if !strings.Contains(row, "5/5") || !strings.HasSuffix(row, "worse") {
		t.Errorf("sim-fleet op_ms_p50 row: %q", row)
	}
}
