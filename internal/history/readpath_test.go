package history

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perfsight/internal/controller"
	"perfsight/internal/core"
)

// earlyExt is an extension attr whose name sorts before every schema name
// while its ID sorts after every schema ID.
var earlyExt = func() core.AttrID {
	id, err := core.RegisterAttr("aaa_readpath_ext", core.SemCounter, "count")
	if err != nil {
		panic(err)
	}
	return id
}()

// oracleAttrs is the attr pool of the random stores, in ID order.
var oracleAttrs = []core.AttrID{
	core.AttrKind, core.AttrRxPackets, core.AttrRxBytes, core.AttrTxPackets,
	core.AttrDropPackets, core.AttrQueueLen, core.AttrMemBytes, earlyExt, core.SketchAttrID(),
}

// randomStore fills a small store whose raw rings overflow into the
// step-down rings and whose retention evicts: records miss random attrs,
// list them shuffled, repeat timestamps (overwrites) and go back in time
// (dropped), and the sketch attr carries payload blobs. Timestamps start
// at or near zero. The model is fed the same records.
func randomStore(seed int64) (twin, []core.TenantID, int64) {
	rng := rand.New(rand.NewSource(seed))
	s := newTwin(Config{
		MaxPointsPerSeries: 1 + rng.Intn(5),
		DownsampleStep:     time.Duration(1 + rng.Intn(6)),
		Retention:          time.Duration(1 + rng.Intn(30)),
		Shards:             1 + rng.Intn(4),
	})
	type cursor struct {
		tid core.TenantID
		eid core.ElementID
		ts  int64
	}
	var tenants []core.TenantID
	var cursors []cursor
	for t := 0; t < 1+rng.Intn(3); t++ {
		tid := core.TenantID(fmt.Sprintf("t%d", t))
		tenants = append(tenants, tid)
		for e := 0; e < 1+rng.Intn(5); e++ {
			cursors = append(cursors, cursor{tid, core.ElementID(fmt.Sprintf("m%d/e%d", e%2, e)), int64(rng.Intn(4) - 1)})
		}
	}
	var maxTS int64
	for n := 10 + rng.Intn(80); n > 0; n-- {
		c := &cursors[rng.Intn(len(cursors))]
		ts := c.ts
		switch r := rng.Intn(10); {
		case r == 0: // same instant again: overwrite
		case r == 1: // back in time: dropped
			ts -= int64(1 + rng.Intn(4))
		default:
			c.ts += int64(1 + rng.Intn(4))
			ts = c.ts
		}
		maxTS = max(maxTS, ts)
		attrs := slices.Clone(oracleAttrs)
		rng.Shuffle(len(attrs), func(i, j int) { attrs[i], attrs[j] = attrs[j], attrs[i] })
		rec := core.Record{Timestamp: ts, Element: c.eid}
		for _, id := range attrs[:rng.Intn(len(attrs)+1)] {
			a := core.Attr{ID: id, Value: float64(rng.Intn(1000))}
			if id == core.SketchAttrID() && rng.Intn(2) == 0 {
				a.Payload = []byte{byte(rng.Intn(256)), byte(ts)}
			}
			rec.Attrs = append(rec.Attrs, a)
		}
		s.Append(c.tid, rec)
	}
	return s, tenants, maxTS
}

// TestReadPathMatchesModel drives every read of hundreds of seeded random
// stores against the model fed the same records, over asOf values that
// include <= 0 and windows that include 0, and checks that the store's
// timelines are the model's.
func TestReadPathMatchesModel(t *testing.T) {
	const stores = 400
	var downsampled, evicted, intervals, splits int64
	for seed := int64(0); seed < stores; seed++ {
		s, tenants, maxTS := randomStore(seed)
		m := s.m
		if got, want := s.Stats(), m.Stats(); got != want {
			t.Fatalf("seed %d: Stats = %+v, model %+v", seed, got, want)
		}
		downsampled += s.Stats().Downsampled
		evicted += s.Stats().Evicted
		splits += int64(m.splits)
		rng := rand.New(rand.NewSource(^seed))
		if got, want := s.Tenants(), m.Tenants(); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: Tenants = %v, model %v", seed, got, want)
		}
		asOfs := []int64{-3, 0, 1, 2, maxTS, maxTS + 50, math.MaxInt64, rng.Int63n(maxTS + 3), rng.Int63n(maxTS + 3)}
		windows := []time.Duration{0, 1, 2, -1, time.Duration(maxTS), time.Duration(1 + rng.Int63n(maxTS+2))}
		for _, tid := range append(tenants, "ghost") {
			ids := s.Elements(tid)
			if want := m.Elements(tid); !reflect.DeepEqual(ids, want) {
				t.Fatalf("seed %d: Elements(%s) = %v, model %v", seed, tid, ids, want)
			}
			for _, eid := range append(slices.Clone(ids), "ghost") {
				if got, want := s.Attrs(tid, eid), m.Attrs(tid, eid); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: Attrs(%s, %s) = %v, model %v", seed, tid, eid, got, want)
				}
				if got, want := timelines(s.Store, tid, eid), m.Timelines(tid, eid); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: %s/%s timelines = %v, model %v", seed, tid, eid, got, want)
				}
			}
			for _, asOf := range asOfs {
				for _, eid := range append(slices.Clone(ids), "ghost") {
					got, ok := s.At(tid, eid, asOf)
					want, wantOK := m.At(tid, eid, asOf)
					if ok != wantOK || !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d: At(%s, %s, %d) = %v %v, model %v %v", seed, tid, eid, asOf, got, ok, want, wantOK)
					}
					for _, w := range windows {
						got, ok := s.Interval(tid, eid, w, asOf)
						want, wantOK := m.Interval(tid, eid, w, asOf)
						if ok {
							intervals++
						}
						if ok != wantOK || !reflect.DeepEqual(got, want) {
							t.Fatalf("seed %d: Interval(%s, %s, %d, %d) = %v %v, model %v %v", seed, tid, eid, w, asOf, got, ok, want, wantOK)
						}
					}
				}
				for _, w := range windows {
					if got, want := s.Intervals(tid, nil, w, asOf), m.Intervals(tid, nil, w, asOf); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d: Intervals(%s, nil, %d, %d) = %v, model %v", seed, tid, w, asOf, got, want)
					}
					some := append([]core.ElementID{"ghost"}, ids[:rng.Intn(len(ids)+1)]...)
					if got, want := s.Intervals(tid, some, w, asOf), m.Intervals(tid, some, w, asOf); !reflect.DeepEqual(got, want) {
						t.Fatalf("seed %d: Intervals(%s, %v, %d, %d) = %v, model %v", seed, tid, some, w, asOf, got, want)
					}
				}
			}
			for _, eid := range ids {
				for _, id := range oracleAttrs {
					name := core.AttrName(id)
					for _, q := range [][2]int64{{math.MinInt64, math.MaxInt64}, {0, 0}, {rng.Int63n(maxTS+2) - 1, rng.Int63n(maxTS + 2)}, {rng.Int63n(maxTS + 2), maxTS}} {
						limit := rng.Intn(4) - 1
						got := s.Series(tid, eid, name, q[0], q[1], limit)
						if want := m.Series(tid, eid, name, q[0], q[1], limit); !reflect.DeepEqual(got, want) {
							t.Fatalf("seed %d: Series(%s, %s, %s, %d, %d, %d) = %v, model %v", seed, tid, eid, name, q[0], q[1], limit, got, want)
						}
					}
				}
			}
		}
	}
	t.Logf("%d stores: %d points downsampled, %d evicted, %d timelines split, %d intervals synthesized", stores, downsampled, evicted, splits, intervals)
	if downsampled == 0 || evicted == 0 || splits == 0 || intervals == 0 {
		t.Fatal("the random stores no longer reach step-down, eviction, a timeline split or a synthesized interval")
	}
}

// TestReadPathTraps pins the two edge cases a one-pass interval can get
// wrong while every ordinary window still matches.
func TestReadPathTraps(t *testing.T) {
	rec := func(eid core.ElementID, ts int64) core.Record {
		return core.Record{Timestamp: ts, Element: eid, Attrs: []core.Attr{{ID: core.AttrRxPackets, Value: float64(ts)}}}
	}
	check := func(t *testing.T, s twin, eid core.ElementID, window time.Duration, asOf int64) (controller.Interval, bool) {
		t.Helper()
		got, ok := s.Interval(testTenant, eid, window, asOf)
		want, wantOK := s.m.Interval(testTenant, eid, window, asOf)
		if ok != wantOK || !reflect.DeepEqual(got, want) {
			t.Fatalf("Interval(%s, %d, %d) = %v %v, model %v %v", eid, window, asOf, got, ok, want, wantOK)
		}
		if ivs := s.Intervals(testTenant, nil, window, asOf); !reflect.DeepEqual(ivs, s.m.Intervals(testTenant, nil, window, asOf)) {
			t.Fatalf("Intervals(%d, %d) = %v differs from the model", window, asOf, ivs)
		}
		return got, ok
	}

	// (a) A Prev edge at or before zero is At(<= 0), which means
	// "newest": no interval, even though a point sits at TS 0.
	t.Run("prev edge at or before zero", func(t *testing.T) {
		s := newTwin(Config{})
		s.Append(testTenant, rec("e", 0))
		s.Append(testTenant, rec("e", 5))
		for _, w := range []time.Duration{5, 6} {
			for _, asOf := range []int64{0, 5} {
				if _, ok := check(t, s, "e", w, asOf); ok {
					t.Fatalf("window %d asOf %d synthesized an interval from the point at TS 0", w, asOf)
				}
			}
		}
		if iv, ok := check(t, s, "e", 4, 0); !ok || iv.Prev.Timestamp != 0 {
			t.Fatalf("window 4 = %v %v, want Prev at TS 0", iv, ok)
		}
	})

	// (b) With asOf <= 0 every element resolves its own newest point,
	// whichever of them sorts first.
	t.Run("asOf newest is per element", func(t *testing.T) {
		for _, order := range [][2]core.ElementID{{"a", "b"}, {"b", "a"}} {
			s := newTwin(Config{})
			early, late := order[0], order[1]
			for ts := int64(1); ts <= 10; ts++ {
				s.Append(testTenant, rec(early, ts))
			}
			for ts := int64(1); ts <= 20; ts++ {
				s.Append(testTenant, rec(late, ts))
			}
			check(t, s, early, 3, 0)
			ivs := s.Intervals(testTenant, nil, 3, -1)
			if ivs[early].Cur.Timestamp != 10 || ivs[late].Cur.Timestamp != 20 {
				t.Fatalf("newest Cur = %d/%d for %s/%s, want 10/20", ivs[early].Cur.Timestamp, ivs[late].Cur.Timestamp, early, late)
			}
		}
	})
}

// TestAtAttrsInNameOrder is the JSON surfaces' contract: a reconstructed
// record lists its attrs by canonical name, not by ID, whatever order
// they were appended in.
func TestAtAttrsInNameOrder(t *testing.T) {
	if core.AttrName(earlyExt) >= core.AttrName(core.AttrCapacityBps) || earlyExt <= core.SchemaMax {
		t.Fatalf("%s (ID %d) must sort first by name and last by ID", core.AttrName(earlyExt), earlyExt)
	}
	s := New(Config{})
	for ts := int64(1); ts <= 3; ts++ {
		s.Append(testTenant, core.Record{Timestamp: ts, Element: "e", Attrs: []core.Attr{
			{ID: core.AttrTxPackets, Value: 1}, {ID: core.AttrKind, Value: 2},
			{ID: earlyExt, Value: 3}, {ID: core.AttrDropPackets, Value: 4},
		}})
	}
	want := []string{core.AttrName(earlyExt), "drop_packets", "kind", "tx_packets"}
	names := func(r core.Record) []string {
		var out []string
		for _, a := range r.Attrs {
			out = append(out, core.AttrName(a.ID))
		}
		return out
	}
	rec, _ := s.At(testTenant, "e", 0)
	iv, _ := s.Interval(testTenant, "e", 1, 0)
	ivs := s.Intervals(testTenant, nil, 1, 0)
	for what, r := range map[string]core.Record{"At": rec, "Interval.Cur": iv.Cur, "Interval.Prev": iv.Prev, "Intervals.Cur": ivs["e"].Cur} {
		if got := names(r); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s attrs = %v, want %v", what, got, want)
		}
	}
}

// TestIntervalsSlabAliasing: every interval of one Intervals call shares
// one allocation, so an append to one record's attrs must reallocate
// rather than write over its Prev or a neighbouring element.
func TestIntervalsSlabAliasing(t *testing.T) {
	s := newTwin(Config{})
	for e := 0; e < 4; e++ {
		eid := core.ElementID(fmt.Sprintf("e%d", e))
		for ts := int64(1); ts <= 4; ts++ {
			rec := benchRecord(eid, ts)
			if e%2 == 1 && ts == 4 {
				// A series that starts after both edges leaves Cur and
				// Prev with spare capacity in the slab.
				rec.Attrs = append(rec.Attrs, core.Attr{ID: core.AttrQueueCap, Value: 9})
			}
			s.Append(testTenant, rec)
		}
	}
	ivs := s.Intervals(testTenant, nil, 2, 3)
	want := s.m.Intervals(testTenant, nil, 2, 3)
	if !reflect.DeepEqual(ivs, want) || len(ivs) != 4 {
		t.Fatalf("Intervals = %v, model %v", ivs, want)
	}
	junk := core.Attr{ID: core.AttrMemBytes, Value: -1}
	for eid, iv := range ivs {
		iv.Cur.Attrs = append(iv.Cur.Attrs, junk, junk, junk)
		iv.Prev.Attrs = append(iv.Prev.Attrs, junk, junk, junk)
		for other, oiv := range ivs {
			if other == eid {
				continue
			}
			if !reflect.DeepEqual(oiv, want[other]) {
				t.Fatalf("append to %s's records changed %s: %v", eid, other, oiv)
			}
		}
		if !reflect.DeepEqual(ivs[eid].Prev, want[eid].Prev) {
			t.Fatalf("append to %s's Cur changed its Prev: %v", eid, ivs[eid].Prev)
		}
	}
}

// groupedElements scans every shard for the tenant's element groups.
func groupedElements(s *Store, tid core.TenantID) []core.ElementID {
	var out []core.ElementID
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for k := range sh.elems {
			if k.Tenant == tid {
				out = append(out, k.Element)
			}
		}
		sh.mu.RUnlock()
	}
	slices.Sort(out)
	return out
}

// TestIndexConcurrentWithAppend runs the readers beside appends that keep
// creating elements and tenants (meaningful under -race): the tenant
// index never lists an element whose group is missing, and Elements
// stays sorted.
func TestIndexConcurrentWithAppend(t *testing.T) {
	s := New(Config{MaxPointsPerSeries: 8})
	var done atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				tid := core.TenantID(fmt.Sprintf("t%d", (i+w)%7))
				s.Append(tid, stackRec(core.ElementID(fmt.Sprintf("w%d/e%d", w, 300-i)), int64(1+i%5), 1))
			}
		}(w)
	}
	errs := make(chan error, 1)
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for !done.Load() {
			for _, tid := range s.Tenants() {
				ids := s.Elements(tid)
				if !slices.IsSorted(ids) {
					errs <- fmt.Errorf("Elements(%s) unsorted: %v", tid, ids)
					return
				}
				for _, eid := range ids {
					k := elemKey{tid, eid}
					sh := s.shardOf(k)
					sh.mu.RLock()
					es := sh.elems[k]
					sh.mu.RUnlock()
					if es == nil {
						errs <- fmt.Errorf("index lists %s/%s without its group", tid, eid)
						return
					}
				}
				s.Intervals(tid, nil, 1, 0)
			}
		}
	}()
	wg.Wait()
	done.Store(true)
	readers.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	for _, tid := range s.Tenants() {
		if got, want := s.Elements(tid), groupedElements(s, tid); !reflect.DeepEqual(got, want) {
			t.Fatalf("Elements(%s) = %v, groups %v", tid, got, want)
		}
	}
	if got := s.Stats().Elements; got != 900 {
		t.Fatalf("Elements stat = %d, want 900", got)
	}
}
