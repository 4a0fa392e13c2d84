// Package history is PerfSight's flight recorder: a sharded, lock-striped
// in-memory time-series store that retains the records a background
// Monitor sweeps out of the agent fleet, so diagnostic applications can
// analyze any past window instantly instead of blocking 2·T on live
// samples (§4–5's continuous-statistics promise).
//
// The store is keyed by (tenant, element, attr) and kept by column. The
// attrs of an element share one timeline: a raw ring holding the most
// recent timestamps at full sweep cadence, and a step-down ring holding
// one timestamp per DownsampleStep for older history. Each attr keeps
// only float64 values, slot for slot with its timeline's rings. A point
// pushed out of the raw ring is folded into its downsample bucket (last
// value wins — the attrs are overwhelmingly monotonic counters, so
// keeping the latest point per bucket preserves window deltas at bucket
// granularity); the step-down ring in turn evicts past the retention
// horizon. Attrs share a timeline only while their timestamp histories
// are identical: a record at a new instant that omits some of them first
// moves those onto their own copy of the timeline. Total resident points
// are therefore bounded by
// series × (MaxPointsPerSeries + Retention/DownsampleStep).
package history

import (
	"hash/maphash"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"perfsight/internal/controller"
	"perfsight/internal/core"
)

// Config bounds the store's memory.
type Config struct {
	// Retention is the horizon behind the newest appended point beyond
	// which downsampled points are evicted. Default 15m.
	Retention time.Duration
	// MaxPointsPerSeries caps the raw (full-cadence) ring. Default 512.
	MaxPointsPerSeries int
	// DownsampleStep is the step-down resolution for points that age out
	// of the raw ring: one retained point per step. Default 10s.
	DownsampleStep time.Duration
	// Shards is the lock-striping factor. Default 16.
	Shards int
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Retention <= 0 {
		c.Retention = 15 * time.Minute
	}
	if c.MaxPointsPerSeries <= 0 {
		c.MaxPointsPerSeries = 512
	}
	if c.DownsampleStep <= 0 {
		c.DownsampleStep = 10 * time.Second
	}
	if c.Shards <= 0 {
		c.Shards = 16
	}
	return c
}

// downCap is the step-down ring capacity for the config: one point per
// step across the retention horizon, plus one for the in-progress bucket.
func (c Config) downCap() int {
	n := int(c.Retention/c.DownsampleStep) + 1
	if n > 4096 {
		n = 4096
	}
	return n
}

// Point is one stored sample of a series.
type Point struct {
	TS int64   `json:"ts"` // record timestamp, ns (virtual or UnixNano)
	V  float64 `json:"v"`
}

// ring is a fixed-capacity FIFO of timestamps in ascending order:
// ts[(head+i)%len(ts)] for i in [0, n), oldest first. The value columns
// of the attrs on the ring's timeline use the same slots.
type ring struct {
	ts   []int64
	head int // slot of the oldest
	n    int
}

// slot returns the slot of the i-th oldest timestamp, i in [0, n).
func (r *ring) slot(i int) int { return (r.head + i) % len(r.ts) }

// push claims the slot after the newest, evicting the oldest when full;
// the caller fills it. evicted is the claimed slot's previous occupant.
func (r *ring) push() (slot int, evicted bool) {
	if r.n == len(r.ts) {
		slot = r.head
		r.head = (r.head + 1) % len(r.ts)
		return slot, true
	}
	r.n++
	return r.slot(r.n - 1), false
}

// runs returns the live timestamps as the ring's two ascending runs: the
// older one from slot head to the end of ts, then the wrapped newer one
// from slot 0.
func (r *ring) runs() (older, newer []int64) {
	if end := r.head + r.n; end > len(r.ts) {
		return r.ts[r.head:], r.ts[:end-len(r.ts)]
	}
	return r.ts[r.head : r.head+r.n], nil
}

// search returns the index of the first timestamp of the ascending run
// that is > t, or >= t when incl is set.
func search(run []int64, t int64, incl bool) int {
	lo, hi := 0, len(run)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ts := run[m]; ts > t || incl && ts == t {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// before returns the slot of the newest timestamp <= t.
func (r *ring) before(t int64) (int, bool) {
	older, newer := r.runs()
	if i := search(newer, t, false); i > 0 {
		return i - 1, true
	}
	if i := search(older, t, false); i > 0 {
		return r.head + i - 1, true
	}
	return 0, false
}

// scan calls fn for every point with from <= TS <= to, oldest first,
// reading the values from vals, a column on this ring.
func (r *ring) scan(vals []float64, from, to int64, fn func(Point) bool) bool {
	older, newer := r.runs()
	for _, run := range [2]struct {
		ts   []int64
		base int
	}{{older, r.head}, {newer, 0}} {
		for i := search(run.ts, from, true); i < len(run.ts); i++ {
			if run.ts[i] > to {
				return true
			}
			if !fn(Point{TS: run.ts[i], V: vals[run.base+i]}) {
				return false
			}
		}
	}
	return true
}

// timeline is the timestamp history a set of an element's attrs share:
// a raw and a step-down ring, and per attr a column of values for each.
type timeline struct {
	raw, down ring
	cols      []*column
	// slot is where the record being appended writes its values on this
	// timeline's raw ring, or -1 when it writes none. Append sets it
	// under the shard's write lock.
	slot int
}

// column is one (tenant, element, attr) series: values, slot for slot
// with its timeline's rings.
type column struct {
	id        core.AttrID
	tl        *timeline
	raw, down []float64
	seen      uint64 // the element's records count when a record last carried the attr
}

// newTimeline allocates a timeline with empty rings for cols, and the
// cols' value columns with it. The raw and step-down parts are separate
// slabs: a raw ring of the default 512 points is 4 KiB per column, so the
// raw slabs fill their allocator size classes exactly, where one joint
// slab would round up by as much as an eighth.
func (s *Store) newTimeline(cols []*column) *timeline {
	rc, dc := s.cfg.MaxPointsPerSeries, s.cfg.downCap()
	tl := &timeline{raw: ring{ts: make([]int64, rc)}, down: ring{ts: make([]int64, dc)}, cols: cols}
	raw, down := make([]float64, len(cols)*rc), make([]float64, len(cols)*dc)
	for i, c := range cols {
		c.raw, c.down, c.tl = raw[i*rc:(i+1)*rc:(i+1)*rc], down[i*dc:(i+1)*dc:(i+1)*dc], tl
	}
	return tl
}

// split moves the columns the record being appended omits onto a copy of
// the timeline, leaving it the columns whose seen equals seq.
func (tl *timeline) split(seq uint64) *timeline {
	var moved []*column
	kept := tl.cols[:0]
	for _, c := range tl.cols {
		if c.seen == seq {
			kept = append(kept, c)
		} else {
			moved = append(moved, c)
		}
	}
	// Zero the tail, so the shrunken list holds no stale column pointers.
	clear(tl.cols[len(kept):])
	tl.cols = kept
	cp := &timeline{raw: tl.raw, down: tl.down, cols: moved}
	cp.raw.ts, cp.down.ts = slices.Clone(tl.raw.ts), slices.Clone(tl.down.ts)
	for _, c := range moved {
		c.tl = cp
	}
	return cp
}

// elemKey identifies one element's series group.
type elemKey struct {
	Tenant  core.TenantID
	Element core.ElementID
}

// blobSample is the newest payload stored for one attr of an element.
// Payload-bearing attrs (sketch summaries) keep only the latest blob —
// the numeric epoch still records as a full series, but summary content
// is a point-in-time artifact, and retaining one per element keeps the
// store's payload memory constant regardless of sweep cadence.
type blobSample struct {
	ts   int64
	blob []byte
}

// elemSeries groups the attr series of one element. attrs finds a column
// by ID; byName holds the same columns in core.AttrName order, so a read
// emits a record's attrs already sorted. timelines lists the timelines
// the columns are on, one unless records have omitted attrs.
type elemSeries struct {
	attrs     map[core.AttrID]*column
	byName    []*column
	timelines []*timeline
	blobs     map[core.AttrID]blobSample
	lastTS    int64
	records   uint64 // records appended, the stamp column.seen compares with
}

type shard struct {
	mu    sync.RWMutex
	elems map[elemKey]*elemSeries
	cols  []*column // Append's scratch: the column of each attr of the record
}

// Stats is a point-in-time summary of the store's occupancy.
type Stats struct {
	Series      int64 // live (tenant, element, attr) series
	Elements    int64 // live (tenant, element) groups
	Resident    int64 // points currently held across all rings
	Appends     int64 // points ever appended
	Downsampled int64 // points folded from the raw ring into step-down buckets
	Evicted     int64 // points permanently dropped (bucket fold, ring overflow, retention)
}

// Store is the flight-recorder time-series store. All methods are safe
// for concurrent use; writes to different elements contend only within a
// shard stripe.
type Store struct {
	cfg    Config
	seed   maphash.Seed
	shards []shard

	// idxMu guards idx, each tenant's recorded elements, sorted. An
	// element enters it once its group exists and never leaves.
	idxMu sync.RWMutex
	idx   map[core.TenantID][]core.ElementID

	series      atomic.Int64
	elements    atomic.Int64
	resident    atomic.Int64
	appends     atomic.Int64
	downsampled atomic.Int64
	evicted     atomic.Int64

	tel atomic.Pointer[storeMetrics]
}

// New builds a store with the given bounds (zero fields take defaults).
func New(cfg Config) *Store {
	cfg = cfg.withDefaults()
	s := &Store{cfg: cfg, seed: maphash.MakeSeed(), shards: make([]shard, cfg.Shards),
		idx: make(map[core.TenantID][]core.ElementID)}
	for i := range s.shards {
		s.shards[i].elems = make(map[elemKey]*elemSeries)
	}
	return s
}

// Config returns the store's effective (defaulted) configuration.
func (s *Store) Config() Config { return s.cfg }

func (s *Store) shardOf(k elemKey) *shard {
	var h maphash.Hash
	h.SetSeed(s.seed)
	h.WriteString(string(k.Tenant))
	h.WriteByte(0)
	h.WriteString(string(k.Element))
	return &s.shards[h.Sum64()%uint64(len(s.shards))]
}

// Append stores one swept record under the tenant. Points must arrive in
// non-decreasing timestamp order per element; a duplicate timestamp
// replaces the previous value (a re-sweep at the same instant), and an
// older timestamp is dropped.
func (s *Store) Append(tid core.TenantID, rec core.Record) {
	k := elemKey{tid, rec.Element}
	sh := s.shardOf(k)
	sh.mu.Lock()
	es := sh.elems[k]
	if es == nil {
		es = &elemSeries{attrs: make(map[core.AttrID]*column, len(rec.Attrs))}
		sh.elems[k] = es
		s.elements.Add(1)
		s.index(k)
	}
	if rec.Timestamp > es.lastTS {
		es.lastTS = rec.Timestamp
	}
	es.records++
	cols := sh.cols[:0]
	var fresh []*column
	for _, a := range rec.Attrs {
		c := es.attrs[a.ID]
		if c == nil {
			c = &column{id: a.ID}
			es.attrs[a.ID] = c
			name := core.AttrName(a.ID)
			i := sort.Search(len(es.byName), func(i int) bool { return core.AttrName(es.byName[i].id) > name })
			es.byName = slices.Insert(es.byName, i, c)
			s.series.Add(1)
			fresh = append(fresh, c)
		}
		c.seen = es.records
		cols = append(cols, c)
	}
	if fresh != nil {
		// Attrs first seen together share one new timeline.
		es.timelines = append(es.timelines, s.newTimeline(fresh))
	}
	// A split appends its copy, which this record writes nothing on,
	// behind the range.
	for _, tl := range es.timelines {
		tl.slot = s.advance(es, tl, rec.Timestamp)
	}
	for i, a := range rec.Attrs {
		c := cols[i]
		if c.tl.slot >= 0 {
			c.raw[c.tl.slot] = a.Value
		}
		if len(a.Payload) > 0 {
			if es.blobs == nil {
				es.blobs = make(map[core.AttrID]blobSample, 1)
			}
			if prev := es.blobs[a.ID]; rec.Timestamp >= prev.ts {
				// Blobs are immutable after decode, so storing the
				// reference (not a copy) is safe.
				es.blobs[a.ID] = blobSample{ts: rec.Timestamp, blob: a.Payload}
			}
		}
	}
	sh.cols = cols[:0]
	sh.mu.Unlock()
}

// index lists a new element group under its tenant.
func (s *Store) index(k elemKey) {
	s.idxMu.Lock()
	ids := s.idx[k.Tenant]
	i, _ := slices.BinarySearch(ids, k.Element)
	s.idx[k.Tenant] = slices.Insert(ids, i, k.Element)
	s.idxMu.Unlock()
}

// advance moves the timeline to the record at ts being appended to es
// and returns the raw slot its attrs on the timeline write, or -1 when
// the record writes none of them there. A record at the newest instant
// overwrites; an older one is dropped; a newer one that omits some of the
// timeline's attrs first moves those to a copy of the timeline, then
// appends a point for the rest, stepping an evicted raw point down into
// its downsample bucket and enforcing the retention horizon.
func (s *Store) advance(es *elemSeries, tl *timeline, ts int64) int {
	if r := &tl.raw; r.n > 0 {
		last := r.slot(r.n - 1)
		if ts == r.ts[last] {
			return last
		}
		if ts < r.ts[last] {
			return -1 // out of order: monitor sweeps only move forward
		}
	}
	carried := 0
	for _, c := range tl.cols {
		if c.seen == es.records {
			carried++
		}
	}
	if carried == 0 {
		return -1
	}
	if carried < len(tl.cols) {
		es.timelines = append(es.timelines, tl.split(es.records))
	}
	k := int64(carried)
	s.appends.Add(k)
	s.resident.Add(k)
	if m := s.tel.Load(); m != nil {
		m.appends.Add(uint64(k))
	}
	slot, evicted := tl.raw.push()
	if evicted {
		s.stepDown(tl, slot)
	}
	tl.raw.ts[slot] = ts
	// Retention: drop downsampled points behind the horizon.
	horizon := ts - int64(s.cfg.Retention)
	for d := &tl.down; d.n > 0 && d.ts[d.head] < horizon; {
		d.head = (d.head + 1) % len(d.ts)
		d.n--
		s.resident.Add(-k)
		s.noteEvicted(k)
	}
	return slot
}

// stepDown folds the raw point in slot from into its downsample bucket:
// last value per bucket wins.
func (s *Store) stepDown(tl *timeline, from int) {
	k := int64(len(tl.cols))
	s.downsampled.Add(k)
	ts, d := tl.raw.ts[from], &tl.down
	step := int64(s.cfg.DownsampleStep)
	var to int
	if d.n > 0 && d.ts[d.slot(d.n-1)]/step == ts/step {
		to = d.slot(d.n - 1) // the replaced bucket value is gone
		s.resident.Add(-k)
		s.noteEvicted(k)
	} else {
		var evicted bool
		if to, evicted = d.push(); evicted {
			s.resident.Add(-k)
			s.noteEvicted(k)
		}
	}
	d.ts[to] = ts
	for _, c := range tl.cols {
		c.down[to] = c.raw[from]
	}
}

func (s *Store) noteEvicted(n int64) {
	s.evicted.Add(n)
	if m := s.tel.Load(); m != nil {
		m.evictions.Add(uint64(n))
	}
}

// Stats returns the store's occupancy counters.
func (s *Store) Stats() Stats {
	return Stats{
		Series:      s.series.Load(),
		Elements:    s.elements.Load(),
		Resident:    s.resident.Load(),
		Appends:     s.appends.Load(),
		Downsampled: s.downsampled.Load(),
		Evicted:     s.evicted.Load(),
	}
}

// MaxResident returns the configured worst-case resident points for the
// current series population — the bound the retention test asserts.
func (s *Store) MaxResident() int64 {
	return s.series.Load() * int64(s.cfg.MaxPointsPerSeries+s.cfg.downCap())
}

// Tenants lists tenants with stored history, sorted.
func (s *Store) Tenants() []core.TenantID {
	s.idxMu.RLock()
	out := make([]core.TenantID, 0, len(s.idx))
	for t := range s.idx {
		out = append(out, t)
	}
	s.idxMu.RUnlock()
	slices.Sort(out)
	return out
}

// Elements lists the tenant's recorded elements, sorted.
func (s *Store) Elements(tid core.TenantID) []core.ElementID {
	s.idxMu.RLock()
	defer s.idxMu.RUnlock()
	return slices.Clone(s.idx[tid])
}

// Attrs lists the recorded attribute names of one element, sorted.
func (s *Store) Attrs(tid core.TenantID, eid core.ElementID) []string {
	k := elemKey{tid, eid}
	sh := s.shardOf(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	es := sh.elems[k]
	if es == nil {
		return nil
	}
	out := make([]string, len(es.byName))
	for i, c := range es.byName {
		out[i] = core.AttrName(c.id)
	}
	return out
}

// NewestTS returns the newest record timestamp stored for the tenant.
func (s *Store) NewestTS(tid core.TenantID) (int64, bool) {
	var newest int64
	found := false
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k, es := range sh.elems {
			if k.Tenant == tid && (!found || es.lastTS > newest) {
				newest, found = es.lastTS, true
			}
		}
		sh.mu.RUnlock()
	}
	return newest, found
}

// Series returns the stored points of one (tenant, element, attr) series
// with from <= TS <= to, oldest first, downsampled history followed by
// raw. limit <= 0 means unlimited.
func (s *Store) Series(tid core.TenantID, eid core.ElementID, attr string, from, to int64, limit int) []Point {
	id, ok := core.LookupAttr(attr)
	if !ok {
		return nil // a name no producer ever registered has no series
	}
	k := elemKey{tid, eid}
	sh := s.shardOf(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	es := sh.elems[k]
	if es == nil {
		return nil
	}
	c := es.attrs[id]
	if c == nil {
		return nil
	}
	var out []Point
	keep := func(p Point) bool {
		out = append(out, p)
		return limit <= 0 || len(out) < limit
	}
	if c.tl.down.scan(c.down, from, to, keep) {
		c.tl.raw.scan(c.raw, from, to, keep)
	}
	return out
}

// At reconstructs the element's record as of asOf: for every recorded
// attr, the newest stored value at or before asOf, attrs in name order.
// The record carries the newest such sample timestamp. asOf <= 0 means
// "newest".
func (s *Store) At(tid core.TenantID, eid core.ElementID, asOf int64) (core.Record, bool) {
	k := elemKey{tid, eid}
	sh := s.shardOf(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	es := sh.elems[k]
	if es == nil {
		return core.Record{}, false
	}
	if asOf <= 0 {
		asOf = es.lastTS
	}
	return es.record(eid, asOf, make([]core.Attr, 0, len(es.byName)))
}

// record builds the element's record as of asOf (> 0) into dst, whose
// capacity must hold len(es.byName) attrs.
func (es *elemSeries) record(eid core.ElementID, asOf int64, dst []core.Attr) (core.Record, bool) {
	rec := core.Record{Element: eid, Attrs: dst}
	// Columns on one timeline find their slot together: byName visits a
	// timeline's columns in runs, most often all of them in one.
	var (
		tl        *timeline
		slot      int
		inRaw, ok bool
	)
	for _, c := range es.byName {
		if c.tl != tl {
			tl = c.tl
			slot, inRaw = tl.raw.before(asOf)
			ok = inRaw
			if !ok {
				slot, ok = tl.down.before(asOf)
			}
		}
		if !ok {
			continue
		}
		var p Point
		if inRaw {
			p = Point{TS: tl.raw.ts[slot], V: c.raw[slot]}
		} else {
			p = Point{TS: tl.down.ts[slot], V: c.down[slot]}
		}
		a := core.Attr{ID: c.id, Value: p.V}
		// Attach the stored summary blob when it had been produced by
		// asOf; queries into deeper history get the epoch series alone.
		if bs, hasBlob := es.blobs[c.id]; hasBlob && bs.ts <= asOf {
			a.Payload = bs.blob
		}
		rec.Attrs = append(rec.Attrs, a)
		if p.TS > rec.Timestamp {
			rec.Timestamp = p.TS
		}
	}
	if len(rec.Attrs) == 0 {
		return core.Record{}, false
	}
	return rec, true
}

// Interval synthesizes a controller.Interval for the element over the
// window ending at asOf (asOf <= 0 means newest): the Cur snapshot is the
// record at asOf, the Prev snapshot the record one window earlier.
func (s *Store) Interval(tid core.TenantID, eid core.ElementID, window time.Duration, asOf int64) (controller.Interval, bool) {
	var slab []core.Attr
	return s.interval(tid, eid, window, asOf, &slab, 1)
}

// interval reads both edges of one element's interval under a single
// shard lock. Cur and Prev attrs are carved from *slab with three-index
// slices, so a caller's append to one reallocates rather than overwriting
// the other; when *slab is short it is replaced by one sized for left
// more elements like this one.
func (s *Store) interval(tid core.TenantID, eid core.ElementID, window time.Duration, asOf int64, slab *[]core.Attr, left int) (controller.Interval, bool) {
	k := elemKey{tid, eid}
	sh := s.shardOf(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	es := sh.elems[k]
	if es == nil {
		return controller.Interval{}, false
	}
	if asOf <= 0 {
		asOf = es.lastTS
	}
	n := len(es.byName)
	if len(*slab) < 2*n {
		*slab = make([]core.Attr, 2*n*left)
	}
	buf := *slab
	cur, ok := es.record(eid, asOf, buf[:0:n])
	if !ok {
		return controller.Interval{}, false
	}
	// Prev is At(edge), and At(<= 0) means "newest", which is never
	// older than cur: a window reaching back to or past zero has no Prev.
	edge := cur.Timestamp - int64(window)
	if edge <= 0 {
		return controller.Interval{}, false
	}
	prev, ok := es.record(eid, edge, buf[n:n:2*n])
	if !ok || prev.Timestamp >= cur.Timestamp {
		return controller.Interval{}, false
	}
	*slab = buf[2*n:]
	return controller.Interval{Prev: prev, Cur: cur}, true
}

// Intervals synthesizes intervals for a set of elements (nil = every
// recorded element of the tenant) over the window ending at asOf.
// Elements without enough history are omitted, mirroring the partial
// results of a live SampleInterval under churn.
func (s *Store) Intervals(tid core.TenantID, ids []core.ElementID, window time.Duration, asOf int64) map[core.ElementID]controller.Interval {
	if ids == nil {
		ids = s.Elements(tid)
	}
	out := make(map[core.ElementID]controller.Interval, len(ids))
	var slab []core.Attr
	for i, id := range ids {
		if iv, ok := s.interval(tid, id, window, asOf, &slab, len(ids)-i); ok {
			out[id] = iv
		}
	}
	return out
}
