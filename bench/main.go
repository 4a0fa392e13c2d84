// Command bench is the repository's benchmark: four named workloads that
// drive PerfSight's layers as one measured unit, each reporting the same
// end-to-end metrics untraced and the per-layer metrics from a separate
// traced run. See README.md beside this file and BENCHMARK.json at the
// repository root.
//
//	go run . -workload pull-sweep -seed 1 -seconds 20 -trace 0
//	go run . -compare a.jsonl b.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// options is what one run is asked to do.
type options struct {
	seed    uint64
	seconds float64
	trace   bool
	outDir  string // traces and scratch files; inside the checkout
}

// window returns the given share of the run's measuring time.
func (o options) window(share float64) time.Duration {
	return time.Duration(o.seconds * share * float64(time.Second))
}

func (o options) tracePath(workload string) string {
	return filepath.Join(o.outDir, "trace-"+workload+".json")
}

// outcome is what one run measured.
type outcome struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	problems  []string // correctness checks that did not hold
	sizes     any
	samples   map[string]sampleInfo // sample counts behind each percentile
	lateness  map[string]float64    // open-loop generators: how late they ran
	layers    layerMap              // traced runs: what each span name added up to
}

func newOutcome(sizes any) *outcome {
	return &outcome{metrics: map[string]float64{}, sizes: sizes,
		samples: map[string]sampleInfo{}, lateness: map[string]float64{}}
}

func (o *outcome) set(name string, v float64) { o.metrics[name] = v }

func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// workload is one named set of inputs.
type workload struct {
	name string
	why  string
	run  func(options) (*outcome, error)
}

var workloads = []workload{
	{"sim-fleet", "the lab tick does all the work and the collection stack none: engine, dataplane and barrier changes show here only",
		func(o options) (*outcome, error) { return runSimFleet(o, simFleetFull) }},
	{"pull-sweep", "the paper's agent-overhead path end to end over loopback TCP: channel render and parse dominate, wire, history and anomaly are small",
		func(o options) (*outcome, error) { return runPullSweep(o, pullSweepFull) }},
	{"push-ingest", "the same agent, wire and session layers used as a stream with channels bypassed, at a fixed offered load: encode, decode, queue, append and evaluate do the work",
		func(o options) (*outcome, error) { return runPushIngest(o, pushIngestFull) }},
	{"diagnose-replay", "the operator's query path, history reads and Algorithms 1 and 2, beside writes on the same store with collection bypassed: a write-path gain that costs readers shows here only",
		func(o options) (*outcome, error) { return runDiagReplay(o, diagReplayFull) }},
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord says what produced a result.
type runRecord struct {
	Workload   string                 `json:"workload"`
	Commit     string                 `json:"commit"`
	Go         string                 `json:"go"`
	NProc      int                    `json:"nproc"`
	GOMAXPROCS int                    `json:"gomaxprocs"`
	Seed       uint64                 `json:"seed"`
	Seconds    float64                `json:"seconds"`
	Trace      bool                   `json:"trace"`
	WallS      float64                `json:"wall_s"` // the whole run, set-up included
	Sizes      any                    `json:"sizes"`
	Samples    map[string]sampleInfo  `json:"samples,omitempty"`
	Lateness   map[string]float64     `json:"lateness,omitempty"`
	Layers     map[string]layerTotals `json:"layers,omitempty"`
	Problems   []string               `json:"problems,omitempty"`
}

// line is one run as -out appends it and -compare reads it.
type line struct {
	Record runRecord `json:"record"`
	Result result    `json:"result"`
}

// commit names the checkout's commit, or "unknown" outside a git
// repository (the driver's checkouts are not one).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// report turns an outcome into the record and result, holding it to the
// metric tables: an untraced run reports every end-to-end metric and a
// traced run every per-layer metric, no others.
func report(w workload, o options, out *outcome, wall time.Duration) (line, error) {
	specs := endToEnd
	if o.trace {
		specs = perLayer
	}
	res := result{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed,
		Metrics: make(map[string]metricValue, len(specs))}
	for _, s := range specs {
		v, ok := out.metrics[s.Name]
		if !ok && !o.trace {
			return line{}, fmt.Errorf("workload %s did not report %s", w.name, s.Name)
		}
		res.Metrics[s.Name] = metricValue{Value: v, Unit: s.Unit}
		delete(out.metrics, s.Name)
	}
	for name := range out.metrics {
		return line{}, fmt.Errorf("workload %s reported %s, which is not in the metric tables", w.name, name)
	}
	rec := runRecord{Workload: w.name, Commit: commit(), Go: runtime.Version(),
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed: o.seed, Seconds: o.seconds, Trace: o.trace, WallS: wall.Seconds(),
		Sizes: out.sizes, Samples: out.samples, Lateness: out.lateness, Layers: out.layers, Problems: out.problems}
	return line{Record: rec, Result: res}, nil
}

func runOne(w workload, o options, outFile string) error {
	start := time.Now()
	out, err := w.run(o)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	ln, err := report(w, o, out, time.Since(start))
	if err != nil {
		return err
	}
	for _, p := range ln.Record.Problems {
		fmt.Fprintf(os.Stderr, "bench: %s: check failed: %s\n", w.name, p)
	}
	if outFile != "" {
		if err := appendLine(outFile, ln); err != nil {
			return err
		}
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(struct {
		Record runRecord `json:"record"`
	}{ln.Record}); err != nil {
		return err
	}
	return enc.Encode(ln.Result)
}

func appendLine(path string, ln line) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("append result: %w", err)
	}
	if err := json.NewEncoder(f).Encode(ln); err != nil {
		f.Close()
		return fmt.Errorf("append result to %s: %w", path, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("append result to %s: %w", path, err)
	}
	return nil
}

func main() {
	name := flag.String("workload", "", "workload to run, or \"all\": "+workloadNames())
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 20, "how long the run measures")
	trace := flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = untraced run reporting the end-to-end metrics")
	outFile := flag.String("out", "", "also append the run (record and result) to this JSON-lines file, the input of -compare")
	outDir := flag.String("outdir", "out", "directory for trace files and scratch files")
	compare := flag.Bool("compare", false, "compare two -out files given as arguments, one row per workload and end-to-end metric")
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two files, got %d arguments", flag.NArg()))
		}
		worse, err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(fmt.Errorf("-seconds must be positive and -trace 0 or 1"))
	}
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		fatal(err)
	}
	ran := false
	for _, w := range workloads {
		if w.name == *name || *name == "all" {
			if err := runOne(w, o, *outFile); err != nil {
				fatal(err)
			}
			ran = true
		}
	}
	if !ran {
		fatal(fmt.Errorf("unknown workload %q; have %s", *name, workloadNames()))
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}
