package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call. Start and End are nanoseconds since the recorder's origin;
// Parent is the ID of the span that was open when this one began (0 =
// root); spans of one stepped round share Round; Allocs, on the spans the
// recorder was asked to count for, is the heap objects allocated while
// the span was open, its children's included.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Round  int    `json:"round"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Allocs uint64 `json:"allocs"`
}

// recorder keeps the traced run's spans in memory until the run ends. It
// is used from one goroutine (the stepped pipeline), so it takes no lock.
type recorder struct {
	origin  time.Time
	spans   []span
	open    []int // stack of open span IDs
	round   int
	counted map[string]bool // span names that also count allocations
}

// newRecorder returns a recorder that counts allocations in the spans of
// the given names. Counting reads the allocation counter outside the timed
// interval, on both ends; a read stops the world for some 10 µs, which
// lands in the parent span's self time. Count for leaf layers under a span
// that is no layer itself, not for spans nested inside a layer.
func newRecorder(countAllocs ...string) *recorder {
	r := &recorder{origin: time.Now(), counted: map[string]bool{}}
	for _, name := range countAllocs {
		r.counted[name] = true
	}
	return r
}

// nextRound starts a new round; spans begun afterwards carry its number.
func (r *recorder) nextRound() { r.round++ }

// begin opens a span under the innermost open span and returns its ID.
func (r *recorder) begin(name string) int {
	id := len(r.spans) + 1
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{ID: id, Parent: parent, Round: r.round, Name: name})
	r.open = append(r.open, id)
	s := &r.spans[id-1]
	if r.counted[name] {
		s.Allocs = allocsNow() // the base, until end turns it into the difference
	}
	s.Start = time.Since(r.origin).Nanoseconds()
	return id
}

// end closes the span; spans close innermost first.
func (r *recorder) end(id int) {
	s := &r.spans[id-1]
	s.End = time.Since(r.origin).Nanoseconds()
	if r.counted[s.Name] {
		s.Allocs = allocsNow() - s.Allocs
	}
	if n := len(r.open); n == 0 || r.open[n-1] != id {
		panic(fmt.Sprintf("bench: span %d closed out of order", id))
	}
	r.open = r.open[:len(r.open)-1]
}

// time runs fn inside a span.
func (r *recorder) time(name string, fn func()) {
	id := r.begin(name)
	fn()
	r.end(id)
}

// layerTotals is what one span name adds up to over a trace.
type layerTotals struct {
	Calls  int
	Total  time.Duration // sum of durations
	Self   time.Duration // sum of durations minus child coverage
	Allocs uint64        // heap objects allocated, minus the children's
}

// selfTimes reduces spans to per-name totals. A span's self time is its
// duration minus the part of its interval covered by its direct children,
// where overlapping children are counted once and children are clipped to
// the parent's interval; its own allocations are its count minus its
// direct children's.
func selfTimes(spans []span) map[string]layerTotals {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]layerTotals)
	for _, s := range spans {
		dur := s.End - s.Start
		t := out[s.Name]
		t.Calls++
		t.Total += time.Duration(dur)
		t.Self += time.Duration(dur - coverage(children[s.ID], s.Start, s.End))
		own := s.Allocs
		for _, c := range children[s.ID] {
			own -= min(own, c.Allocs) // a span that was not counted for has nothing to take from
		}
		t.Allocs += own
		out[s.Name] = t
	}
	return out
}

// coverage is the length of the union of the spans' intervals within
// [lo, hi].
func coverage(spans []span, lo, hi int64) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var covered int64
	edge := lo // everything before edge is already counted
	for _, s := range spans {
		start, end := max(s.Start, edge), min(s.End, hi)
		if end > start {
			covered += end - start
			edge = end
		}
	}
	return covered
}

// traceFile is the on-disk form of a traced run.
type traceFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Spans    []span `json:"spans"`
}

func writeTrace(path string, tf traceFile) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	data, err := json.Marshal(tf)
	if err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

func readTrace(path string) (traceFile, error) {
	var tf traceFile
	data, err := os.ReadFile(path)
	if err != nil {
		return tf, fmt.Errorf("read trace: %w", err)
	}
	if err := json.Unmarshal(data, &tf); err != nil {
		return tf, fmt.Errorf("read trace %s: %w", path, err)
	}
	return tf, nil
}
