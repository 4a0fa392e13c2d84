package history

import (
	"slices"
	"sort"
	"time"

	"perfsight/internal/controller"
	"perfsight/internal/core"
)

// The model below is the store's original per-series layout, kept as the
// oracle for the column store: every (tenant, element, attr) series owns
// a raw and a step-down ring of {TS, V} points and takes its points one
// by one. Its read path is the original one too: it ranges the attr map,
// finds each edge by a linear scan of the rings, sorts the attrs by name
// afterwards, and resolves each edge of an interval with its own At call.
// Besides the series it tracks the timelines the store should hold: which
// attrs share one because their timestamp histories have been identical.

// pointRing is a fixed-capacity FIFO of points ordered by ascending TS.
type pointRing struct {
	buf  []Point
	head int // index of oldest
	n    int
}

func newPointRing(capacity int) pointRing { return pointRing{buf: make([]Point, capacity)} }

// at returns the i-th oldest point, i in [0, n).
func (r *pointRing) at(i int) Point { return r.buf[(r.head+i)%len(r.buf)] }

// last returns the newest point.
func (r *pointRing) last() (Point, bool) {
	if r.n == 0 {
		return Point{}, false
	}
	return r.at(r.n - 1), true
}

// setLast overwrites the newest point.
func (r *pointRing) setLast(p Point) { r.buf[(r.head+r.n-1)%len(r.buf)] = p }

// push appends p, evicting the oldest point when full.
func (r *pointRing) push(p Point) (evicted Point, wasFull bool) {
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
func (r *pointRing) popOldest() Point {
	p := r.buf[r.head]
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return p
}

// before returns the newest point with TS <= t, by linear scan.
func (r *pointRing) before(t int64) (Point, bool) {
	for i := r.n - 1; i >= 0; i-- {
		if p := r.at(i); p.TS <= t {
			return p, true
		}
	}
	return Point{}, false
}

// pointSeries is one series of the model: raw + step-down rings.
type pointSeries struct {
	raw  pointRing
	down pointRing
}

type modelElem struct {
	attrs     map[core.AttrID]*pointSeries
	blobs     map[core.AttrID]blobSample
	lastTS    int64
	timelines [][]core.AttrID
}

type modelStore struct {
	cfg    Config
	elems  map[elemKey]*modelElem
	stats  Stats
	splits int // timelines split off because a record omitted attrs
}

func newModel(cfg Config) *modelStore {
	return &modelStore{cfg: cfg.withDefaults(), elems: make(map[elemKey]*modelElem)}
}

func (m *modelStore) Append(tid core.TenantID, rec core.Record) {
	k := elemKey{tid, rec.Element}
	es := m.elems[k]
	if es == nil {
		es = &modelElem{attrs: make(map[core.AttrID]*pointSeries)}
		m.elems[k] = es
		m.stats.Elements++
	}
	if rec.Timestamp > es.lastTS {
		es.lastTS = rec.Timestamp
	}
	m.regroup(es, rec)
	for _, a := range rec.Attrs {
		sr := es.attrs[a.ID]
		if sr == nil {
			sr = &pointSeries{raw: newPointRing(m.cfg.MaxPointsPerSeries), down: newPointRing(m.cfg.downCap())}
			es.attrs[a.ID] = sr
			m.stats.Series++
		}
		m.appendPoint(sr, Point{TS: rec.Timestamp, V: a.Value})
		if len(a.Payload) > 0 {
			if es.blobs == nil {
				es.blobs = make(map[core.AttrID]blobSample)
			}
			if prev := es.blobs[a.ID]; rec.Timestamp >= prev.ts {
				es.blobs[a.ID] = blobSample{ts: rec.Timestamp, blob: a.Payload}
			}
		}
	}
}

// regroup applies the sharing rule to the element's timelines before rec
// is appended: attrs first seen in rec start one timeline together, and a
// record newer than a timeline's newest point that omits some of its
// attrs splits those off. Overwrites and out-of-order records split none.
func (m *modelStore) regroup(es *modelElem, rec core.Record) {
	var carried, fresh []core.AttrID
	for _, a := range rec.Attrs {
		if !slices.Contains(carried, a.ID) {
			carried = append(carried, a.ID)
			if es.attrs[a.ID] == nil {
				fresh = append(fresh, a.ID)
			}
		}
	}
	for i, ids := range es.timelines {
		if last, _ := es.attrs[ids[0]].raw.last(); rec.Timestamp <= last.TS {
			continue
		}
		var in, out []core.AttrID
		for _, id := range ids {
			if slices.Contains(carried, id) {
				in = append(in, id)
			} else {
				out = append(out, id)
			}
		}
		if len(in) > 0 && len(out) > 0 {
			es.timelines[i] = in
			es.timelines = append(es.timelines, out)
			m.splits++
		}
	}
	if len(fresh) > 0 {
		es.timelines = append(es.timelines, fresh)
	}
}

// appendPoint is the original per-series write path.
func (m *modelStore) appendPoint(sr *pointSeries, p Point) {
	if last, ok := sr.raw.last(); ok {
		if p.TS == last.TS {
			sr.raw.setLast(p)
			return
		}
		if p.TS < last.TS {
			return
		}
	}
	m.stats.Appends++
	m.stats.Resident++
	old, wasFull := sr.raw.push(p)
	if wasFull {
		m.stats.Downsampled++
		bucket := old.TS / int64(m.cfg.DownsampleStep)
		if dl, ok := sr.down.last(); ok && dl.TS/int64(m.cfg.DownsampleStep) == bucket {
			sr.down.setLast(old)
			m.stats.Resident--
			m.stats.Evicted++
		} else if _, full := sr.down.push(old); full {
			m.stats.Resident--
			m.stats.Evicted++
		}
	}
	horizon := p.TS - int64(m.cfg.Retention)
	for sr.down.n > 0 && sr.down.at(0).TS < horizon {
		sr.down.popOldest()
		m.stats.Resident--
		m.stats.Evicted++
	}
}

func (m *modelStore) Stats() Stats { return m.stats }

func (m *modelStore) At(tid core.TenantID, eid core.ElementID, asOf int64) (core.Record, bool) {
	es := m.elems[elemKey{tid, eid}]
	if es == nil {
		return core.Record{}, false
	}
	if asOf <= 0 {
		asOf = es.lastTS
	}
	rec := core.Record{Element: eid}
	for id, sr := range es.attrs {
		p, ok := sr.raw.before(asOf)
		if !ok {
			p, ok = sr.down.before(asOf)
		}
		if !ok {
			continue
		}
		a := core.Attr{ID: id, Value: p.V}
		if bs, hasBlob := es.blobs[id]; hasBlob && bs.ts <= asOf {
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
	sort.Slice(rec.Attrs, func(i, j int) bool { return core.AttrName(rec.Attrs[i].ID) < core.AttrName(rec.Attrs[j].ID) })
	return rec, true
}

func (m *modelStore) Interval(tid core.TenantID, eid core.ElementID, window time.Duration, asOf int64) (controller.Interval, bool) {
	cur, ok := m.At(tid, eid, asOf)
	if !ok {
		return controller.Interval{}, false
	}
	prev, ok := m.At(tid, eid, cur.Timestamp-int64(window))
	if !ok || prev.Timestamp >= cur.Timestamp {
		return controller.Interval{}, false
	}
	return controller.Interval{Prev: prev, Cur: cur}, true
}

func (m *modelStore) Elements(tid core.TenantID) []core.ElementID {
	var out []core.ElementID
	for k := range m.elems {
		if k.Tenant == tid {
			out = append(out, k.Element)
		}
	}
	slices.Sort(out)
	return out
}

func (m *modelStore) Tenants() []core.TenantID {
	out := []core.TenantID{}
	for k := range m.elems {
		if !slices.Contains(out, k.Tenant) {
			out = append(out, k.Tenant)
		}
	}
	slices.Sort(out)
	return out
}

func (m *modelStore) Intervals(tid core.TenantID, ids []core.ElementID, window time.Duration, asOf int64) map[core.ElementID]controller.Interval {
	if ids == nil {
		ids = m.Elements(tid)
	}
	out := make(map[core.ElementID]controller.Interval, len(ids))
	for _, id := range ids {
		if iv, ok := m.Interval(tid, id, window, asOf); ok {
			out[id] = iv
		}
	}
	return out
}

// Series filters every stored point of the series linearly.
func (m *modelStore) Series(tid core.TenantID, eid core.ElementID, attr string, from, to int64, limit int) []Point {
	id, ok := core.LookupAttr(attr)
	if !ok {
		return nil
	}
	es := m.elems[elemKey{tid, eid}]
	if es == nil || es.attrs[id] == nil {
		return nil
	}
	var out []Point
	for _, r := range []*pointRing{&es.attrs[id].down, &es.attrs[id].raw} {
		for i := 0; i < r.n; i++ {
			if p := r.at(i); p.TS >= from && p.TS <= to {
				out = append(out, p)
			}
		}
	}
	if limit > 0 && len(out) > limit {
		out = out[:limit]
	}
	return out
}

func (m *modelStore) Attrs(tid core.TenantID, eid core.ElementID) []string {
	es := m.elems[elemKey{tid, eid}]
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

// Timelines lists the element's timelines as ID-sorted attr sets, sorted.
func (m *modelStore) Timelines(tid core.TenantID, eid core.ElementID) [][]core.AttrID {
	es := m.elems[elemKey{tid, eid}]
	if es == nil {
		return nil
	}
	var out [][]core.AttrID
	for _, ids := range es.timelines {
		ids = slices.Clone(ids)
		slices.Sort(ids)
		out = append(out, ids)
	}
	slices.SortFunc(out, slices.Compare)
	return out
}

// timelines lists the store's timelines of one element in the model's
// form.
func timelines(s *Store, tid core.TenantID, eid core.ElementID) [][]core.AttrID {
	k := elemKey{tid, eid}
	sh := s.shardOf(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	es := sh.elems[k]
	if es == nil {
		return nil
	}
	var out [][]core.AttrID
	for _, tl := range es.timelines {
		var ids []core.AttrID
		for _, c := range tl.cols {
			if c.tl != tl {
				panic("column listed on a timeline it is not on")
			}
			ids = append(ids, c.id)
		}
		slices.Sort(ids)
		out = append(out, ids)
	}
	slices.SortFunc(out, slices.Compare)
	return out
}

// twin feeds one Append stream to a store and to the model.
type twin struct {
	*Store
	m *modelStore
}

func newTwin(cfg Config) twin { return twin{New(cfg), newModel(cfg)} }

func (t twin) Append(tid core.TenantID, rec core.Record) {
	t.Store.Append(tid, rec)
	t.m.Append(tid, rec)
}
