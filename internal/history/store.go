// Package history is PerfSight's flight recorder: a sharded, lock-striped
// in-memory time-series store that retains the records a background
// Monitor sweeps out of the agent fleet, so diagnostic applications can
// analyze any past window instantly instead of blocking 2·T on live
// samples (§4–5's continuous-statistics promise).
//
// The store is keyed by (tenant, element, attr). Each series is a pair of
// ring buffers: a raw ring holding the most recent points at full sweep
// cadence, and a step-down ring holding one point per DownsampleStep for
// older history. A point pushed out of the raw ring is folded into its
// downsample bucket (last value wins — the attrs are overwhelmingly
// monotonic counters, so keeping the latest point per bucket preserves
// window deltas at bucket granularity); the step-down ring in turn evicts
// past the retention horizon. Total resident points are therefore bounded
// by series × (MaxPointsPerSeries + Retention/DownsampleStep).
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

// ring is a fixed-capacity FIFO of points ordered by ascending TS.
type ring struct {
	buf  []Point
	head int // index of oldest
	n    int
}

func newRing(capacity int) ring { return ring{buf: make([]Point, capacity)} }

// at returns the i-th oldest point, i in [0, n).
func (r *ring) at(i int) Point { return r.buf[(r.head+i)%len(r.buf)] }

// last returns the newest point.
func (r *ring) last() (Point, bool) {
	if r.n == 0 {
		return Point{}, false
	}
	return r.at(r.n - 1), true
}

// setLast overwrites the newest point.
func (r *ring) setLast(p Point) { r.buf[(r.head+r.n-1)%len(r.buf)] = p }

// push appends p, evicting the oldest point when full.
func (r *ring) push(p Point) (evicted Point, wasFull bool) {
	if r.n == len(r.buf) {
		evicted = r.buf[r.head]
		r.buf[r.head] = p
		r.head = (r.head + 1) % len(r.buf)
		return evicted, true
	}
	r.buf[(r.head+r.n)%len(r.buf)] = p
	r.n++
	return Point{}, false
}

// popOldest removes and returns the oldest point.
func (r *ring) popOldest() Point {
	p := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return p
}

// runs returns the live points as the ring's two ascending runs: the
// older one from head to the end of buf, then the wrapped newer one.
func (r *ring) runs() (older, newer []Point) {
	if end := r.head + r.n; end > len(r.buf) {
		return r.buf[r.head:], r.buf[:end-len(r.buf)]
	}
	return r.buf[r.head : r.head+r.n], nil
}

// search returns the index of the first point of the ascending run with
// TS > t, or with TS >= t when incl is set.
func search(run []Point, t int64, incl bool) int {
	lo, hi := 0, len(run)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if ts := run[m].TS; ts > t || incl && ts == t {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo
}

// before returns the newest point with TS <= t.
func (r *ring) before(t int64) (Point, bool) {
	older, newer := r.runs()
	if i := search(newer, t, false); i > 0 {
		return newer[i-1], true
	}
	if i := search(older, t, false); i > 0 {
		return older[i-1], true
	}
	return Point{}, false
}

// scan calls fn for every point with from <= TS <= to, oldest first.
func (r *ring) scan(from, to int64, fn func(Point) bool) bool {
	older, newer := r.runs()
	for _, run := range [2][]Point{older, newer} {
		for _, p := range run[search(run, from, true):] {
			if p.TS > to {
				return true
			}
			if !fn(p) {
				return false
			}
		}
	}
	return true
}

// series is one (tenant, element, attr) time series: raw + step-down rings.
type series struct {
	raw  ring
	down ring
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

// namedSeries is one entry of an element's name-ordered series list.
type namedSeries struct {
	id core.AttrID
	sr *series
}

// elemSeries groups the attr series of one element. attrs finds a series
// by ID; byName holds the same series in core.AttrName order, so a read
// emits a record's attrs already sorted.
type elemSeries struct {
	attrs  map[core.AttrID]*series
	byName []namedSeries
	blobs  map[core.AttrID]blobSample
	lastTS int64
}

type shard struct {
	mu    sync.RWMutex
	elems map[elemKey]*elemSeries
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
		es = &elemSeries{attrs: make(map[core.AttrID]*series, len(rec.Attrs))}
		sh.elems[k] = es
		s.elements.Add(1)
		s.index(k)
	}
	if rec.Timestamp > es.lastTS {
		es.lastTS = rec.Timestamp
	}
	for _, a := range rec.Attrs {
		sr := es.attrs[a.ID]
		if sr == nil {
			sr = &series{
				raw:  newRing(s.cfg.MaxPointsPerSeries),
				down: newRing(s.cfg.downCap()),
			}
			es.attrs[a.ID] = sr
			name := core.AttrName(a.ID)
			i := sort.Search(len(es.byName), func(i int) bool { return core.AttrName(es.byName[i].id) > name })
			es.byName = slices.Insert(es.byName, i, namedSeries{a.ID, sr})
			s.series.Add(1)
		}
		s.appendPoint(sr, Point{TS: rec.Timestamp, V: a.Value})
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

// appendPoint pushes p into the series, stepping evicted raw points down
// into their downsample bucket and enforcing the retention horizon.
func (s *Store) appendPoint(sr *series, p Point) {
	if last, ok := sr.raw.last(); ok {
		if p.TS == last.TS {
			sr.raw.setLast(p)
			return
		}
		if p.TS < last.TS {
			return // out of order: monitor sweeps only move forward
		}
	}
	s.appends.Add(1)
	s.resident.Add(1)
	if m := s.tel.Load(); m != nil {
		m.appends.Inc()
	}
	old, wasFull := sr.raw.push(p)
	if wasFull {
		// The displaced raw point steps down: last value per bucket wins.
		s.downsampled.Add(1)
		bucket := old.TS / int64(s.cfg.DownsampleStep)
		if dl, ok := sr.down.last(); ok && dl.TS/int64(s.cfg.DownsampleStep) == bucket {
			sr.down.setLast(old) // the replaced bucket value is gone
			s.resident.Add(-1)
			s.noteEvicted(1)
		} else if _, full := sr.down.push(old); full {
			s.resident.Add(-1)
			s.noteEvicted(1)
		}
	}
	// Retention: drop downsampled points behind the horizon.
	horizon := p.TS - int64(s.cfg.Retention)
	for sr.down.n > 0 && sr.down.at(0).TS < horizon {
		sr.down.popOldest()
		s.resident.Add(-1)
		s.noteEvicted(1)
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
	out := make([]string, 0, len(es.attrs))
	for a := range es.attrs {
		out = append(out, core.AttrName(a))
	}
	sort.Strings(out)
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
	sr := es.attrs[id]
	if sr == nil {
		return nil
	}
	var out []Point
	keep := func(p Point) bool {
		out = append(out, p)
		return limit <= 0 || len(out) < limit
	}
	if sr.down.scan(from, to, keep) {
		sr.raw.scan(from, to, keep)
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
	for _, ns := range es.byName {
		p, ok := ns.sr.raw.before(asOf)
		if !ok {
			p, ok = ns.sr.down.before(asOf)
		}
		if !ok {
			continue
		}
		a := core.Attr{ID: ns.id, Value: p.V}
		// Attach the stored summary blob when it had been produced by
		// asOf; queries into deeper history get the epoch series alone.
		if bs, hasBlob := es.blobs[ns.id]; hasBlob && bs.ts <= asOf {
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
