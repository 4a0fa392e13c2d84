// Package telemetry is PerfSight's self-observation layer: a lightweight,
// dependency-free metrics registry plus Prometheus-text exposition and a
// query-lifecycle tracer. The monitoring system the paper builds must
// itself stay cheap and accountable (§4.2's ~3 ns counter budget, §7.4's
// overhead measurements); this package makes the reproduction's own
// agents and controller measurable the same way.
//
// Naming convention: perfsight_<component>_<metric>_<unit>, e.g.
// perfsight_agent_query_duration_ns. Counters end in _total; histograms
// carry their unit suffix on the family name.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"perfsight/internal/stats"
)

// Label is one key=value metric dimension.
type Label struct {
	Key, Value string
}

// MetricType enumerates exposition types.
type MetricType string

const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// Counter is a monotonically increasing metric.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add increments by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down. Stored as float64 bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add increments the gauge by d (CAS loop).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+d)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is a log-linear distribution metric (see stats.LogLinear).
// The default layout spans 1 ns to 10 s with 9 buckets per decade.
type Histogram struct {
	h *stats.LogLinear
}

// Observe records one value; negative/non-finite values are rejected.
func (h *Histogram) Observe(v float64) { h.h.Observe(v) }

// Count returns accepted observations.
func (h *Histogram) Count() uint64 { return h.h.Count() }

// Sum returns the sum of accepted observations.
func (h *Histogram) Sum() float64 { return h.h.Sum() }

// Quantile estimates the q-quantile.
func (h *Histogram) Quantile(q float64) (float64, bool) { return h.h.Quantile(q) }

// metric is one (family, label-set) sample series.
type metric struct {
	labels string // rendered {k="v",...} or ""
	c      *Counter
	g      *Gauge
	gf     func() float64
	h      *Histogram
}

// family groups all label variants of one metric name.
type family struct {
	name    string
	help    string
	typ     MetricType
	mu      sync.RWMutex
	order   []string // label strings, registration order
	metrics map[string]*metric
}

// Registry holds the process's metric families. The zero value is not
// usable; call NewRegistry. All methods are safe for concurrent use, and
// registering the same name+labels again returns the existing instance,
// so packages can idempotently wire their metrics.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

func (r *Registry) family(name, help string, typ MetricType) *family {
	if !validName(name) {
		panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, metrics: make(map[string]*metric)}
		r.families[name] = f
		return f
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %q re-registered as %s (was %s)", name, typ, f.typ))
	}
	return f
}

func (f *family) get(labels []Label) (*metric, string) {
	ls := renderLabels(labels)
	f.mu.RLock()
	m := f.metrics[ls]
	f.mu.RUnlock()
	return m, ls
}

func (f *family) put(ls string, m *metric) *metric {
	f.mu.Lock()
	defer f.mu.Unlock()
	if exist := f.metrics[ls]; exist != nil {
		return exist
	}
	m.labels = ls
	f.metrics[ls] = m
	f.order = append(f.order, ls)
	return m
}

// Counter returns (creating if needed) the counter name{labels}.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	f := r.family(name, help, TypeCounter)
	if m, _ := f.get(labels); m != nil {
		return m.c
	}
	m, ls := &metric{c: &Counter{}}, renderLabels(labels)
	return f.put(ls, m).c
}

// Gauge returns (creating if needed) the settable gauge name{labels}.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	f := r.family(name, help, TypeGauge)
	if m, _ := f.get(labels); m != nil {
		return m.g
	}
	m, ls := &metric{g: &Gauge{}}, renderLabels(labels)
	return f.put(ls, m).g
}

// GaugeFunc registers a gauge whose value is pulled from fn at scrape
// time — the natural fit for occupancy/capacity readings that already
// live in another structure (e.g. the DropTracer ring).
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	f := r.family(name, help, TypeGauge)
	if m, _ := f.get(labels); m != nil {
		return // first registration wins; idempotent re-wiring is a no-op
	}
	m, ls := &metric{gf: fn}, renderLabels(labels)
	f.put(ls, m)
}

// Histogram returns (creating if needed) a log-linear histogram with the
// default 1 ns – 10 s layout.
func (r *Registry) Histogram(name, help string, labels ...Label) *Histogram {
	return r.HistogramWithLayout(name, help, 1, 1e10, 9, labels...)
}

// HistogramWithLayout returns a histogram with an explicit bucket layout
// (see stats.NewLogLinear). The layout of an existing histogram is not
// changed.
func (r *Registry) HistogramWithLayout(name, help string, min, max float64, stepsPerDecade int, labels ...Label) *Histogram {
	f := r.family(name, help, TypeHistogram)
	if m, _ := f.get(labels); m != nil {
		return m.h
	}
	m := &metric{h: &Histogram{h: stats.NewLogLinear(min, max, stepsPerDecade)}}
	return f.put(renderLabels(labels), m).h
}

// Names returns the registered family names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.families))
	for n := range r.families {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// renderLabels renders a sorted, escaped {k="v",...} suffix ("" if none).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// validName checks the Prometheus metric-name grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}
