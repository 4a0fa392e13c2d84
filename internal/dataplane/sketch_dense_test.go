package dataplane

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strconv"
	"testing"
)

// denseSketch is the FlowSketch as it stood before its planes were paged:
// two dense depth × width planes per stripe, allocated at construction.
// It is kept as the oracle the paged sketch must match exactly, cell for
// cell and byte for byte. It is single-threaded; the oracle checks compare
// values, not locking.
type denseSketch struct {
	cfg     SketchConfig
	stripes []denseStripe
	epoch   uint64
}

type denseStripe struct {
	pkts, bytes      []uint64 // depth × width, row-major
	entries          []topEntry
	index            map[FlowID]int
	totPkts, totByts uint64
}

func newDenseSketch(cfg SketchConfig) *denseSketch {
	cfg = cfg.withDefaults()
	ds := &denseSketch{cfg: cfg, stripes: make([]denseStripe, cfg.Stripes)}
	for i := range ds.stripes {
		st := &ds.stripes[i]
		st.pkts = make([]uint64, cfg.Width*cfg.Depth)
		st.bytes = make([]uint64, cfg.Width*cfg.Depth)
		st.entries = make([]topEntry, 0, cfg.TopK)
		st.index = make(map[FlowID]int, cfg.TopK)
	}
	return ds
}

func (f *denseSketch) Update(flow FlowID, pkts, byts uint64) {
	h1 := fnv1a64(string(flow))
	h2 := mix64(h1) | 1
	st := &f.stripes[h1%uint64(len(f.stripes))]
	width := uint64(f.cfg.Width)
	st.totPkts += pkts
	st.totByts += byts
	estP := uint64(math.MaxUint64)
	estB := uint64(math.MaxUint64)
	for d := 0; d < f.cfg.Depth; d++ {
		idx := d*f.cfg.Width + rowIdx(h1, h2, d, width)
		if st.pkts[idx] < estP {
			estP = st.pkts[idx]
		}
		if st.bytes[idx] < estB {
			estB = st.bytes[idx]
		}
	}
	estP += pkts
	estB += byts
	for d := 0; d < f.cfg.Depth; d++ {
		idx := d*f.cfg.Width + rowIdx(h1, h2, d, width)
		if st.pkts[idx] < estP {
			st.pkts[idx] = estP
		}
		if st.bytes[idx] < estB {
			st.bytes[idx] = estB
		}
	}
	if i, ok := st.index[flow]; ok {
		st.entries[i].pkts += pkts
		st.entries[i].bytes += byts
	} else if len(st.entries) < cap(st.entries) {
		st.index[flow] = len(st.entries)
		st.entries = append(st.entries, topEntry{
			flow: flow, pkts: estP, bytes: estB,
			errPkts: estP - pkts, errBytes: estB - byts,
		})
	} else {
		min := 0
		for i := 1; i < len(st.entries); i++ {
			if st.entries[i].pkts < st.entries[min].pkts {
				min = i
			}
		}
		if estP > st.entries[min].pkts {
			delete(st.index, st.entries[min].flow)
			st.index[flow] = min
			st.entries[min] = topEntry{
				flow: flow, pkts: estP, bytes: estB,
				errPkts: estP - pkts, errBytes: estB - byts,
			}
		}
	}
	f.epoch++
}

func (f *denseSketch) Estimate(flow FlowID) (pkts, byts uint64) {
	h1 := fnv1a64(string(flow))
	h2 := mix64(h1) | 1
	st := &f.stripes[h1%uint64(len(f.stripes))]
	pkts, byts = math.MaxUint64, math.MaxUint64
	for d := 0; d < f.cfg.Depth; d++ {
		idx := d*f.cfg.Width + rowIdx(h1, h2, d, uint64(f.cfg.Width))
		if st.pkts[idx] < pkts {
			pkts = st.pkts[idx]
		}
		if st.bytes[idx] < byts {
			byts = st.bytes[idx]
		}
	}
	return pkts, byts
}

func (f *denseSketch) Totals() (pkts, byts uint64) {
	for i := range f.stripes {
		pkts += f.stripes[i].totPkts
		byts += f.stripes[i].totByts
	}
	return pkts, byts
}

func (f *denseSketch) Encode() []byte {
	cfg := f.cfg
	dst := []byte{sketchMagic0, sketchMagic1, sketchVersion}
	for _, u := range []uint64{uint64(cfg.Width), uint64(cfg.Depth), uint64(cfg.Stripes), uint64(cfg.TopK), f.epoch} {
		dst = binary.AppendUvarint(dst, u)
	}
	totP, totB := f.Totals()
	dst = binary.AppendUvarint(dst, totP)
	dst = binary.AppendUvarint(dst, totB)
	var flags byte
	if cfg.WirePlanes {
		flags |= sketchFlagPlanes
	}
	dst = append(dst, flags)
	var merged []topEntry
	for i := range f.stripes {
		merged = append(merged, f.stripes[i].entries...)
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].pkts != merged[j].pkts {
			return merged[i].pkts > merged[j].pkts
		}
		return merged[i].flow < merged[j].flow
	})
	if len(merged) > cfg.TopK {
		merged = merged[:cfg.TopK]
	}
	dst = binary.AppendUvarint(dst, uint64(len(merged)))
	for _, e := range merged {
		dst = binary.AppendUvarint(dst, uint64(len(e.flow)))
		dst = append(dst, e.flow...)
		for _, u := range []uint64{e.pkts, e.bytes, e.errPkts, e.errBytes} {
			dst = binary.AppendUvarint(dst, u)
		}
	}
	if cfg.WirePlanes {
		for i := range f.stripes {
			for _, c := range f.stripes[i].pkts {
				dst = binary.AppendUvarint(dst, c)
			}
		}
		for i := range f.stripes {
			for _, c := range f.stripes[i].bytes {
				dst = binary.AppendUvarint(dst, c)
			}
		}
	}
	return dst
}

// residentPages counts the plane pages the sketch has allocated.
func residentPages(fs *FlowSketch) int {
	n := 0
	for i := range fs.stripes {
		st := &fs.stripes[i]
		st.mu.Lock()
		for _, pg := range st.pages {
			if pg != nil {
				n++
			}
		}
		st.mu.Unlock()
	}
	return n
}

// sketchStream is one seeded update workload for the oracle.
type sketchStream struct {
	name     string
	cfg      SketchConfig
	updates  int
	heavies  int // flows updated with large batches
	tail     int // distinct tail flows
	zeroPct  int // share of updates that carry an empty batch
	heavyPct int // share of updates that go to a heavy flow
}

// run feeds the stream to both sketches and returns the flows it used.
func (s sketchStream) run(seed int64, fs *FlowSketch, ds *denseSketch) []FlowID {
	rng := rand.New(rand.NewSource(seed))
	flows := make([]FlowID, 0, s.heavies+s.tail)
	for i := 0; i < s.heavies; i++ {
		flows = append(flows, FlowID("heavy-"+strconv.Itoa(i)))
	}
	for i := 0; i < s.tail; i++ {
		flows = append(flows, FlowID("tail-"+strconv.Itoa(i)))
	}
	for i := 0; i < s.updates; i++ {
		var f FlowID
		var p, b uint64
		if s.heavies > 0 && rng.Intn(100) < s.heavyPct {
			f = flows[rng.Intn(s.heavies)]
			p = uint64(rng.Intn(5000) + 500)
			b = p * uint64(rng.Intn(1400)+100)
		} else {
			f = flows[s.heavies+rng.Intn(s.tail)]
			p = uint64(rng.Intn(3) + 1)
			b = p * uint64(rng.Intn(1400)+64)
		}
		if rng.Intn(100) < s.zeroPct {
			// Empty batches, and the two one-plane-empty edges.
			switch rng.Intn(3) {
			case 0:
				p, b = 0, 0
			case 1:
				p = 0
			default:
				b = 0
			}
		}
		fs.Update(f, p, b)
		ds.Update(f, p, b)
	}
	return flows
}

// TestPagedSketchMatchesDense: on seeded streams — heavy/tail mixes, top-k
// evictions, empty batches, and a geometry whose Width·Depth is not a
// multiple of the page size — the paged sketch's estimates (seen and
// unseen flows), totals, epoch and encoded bytes (planes off and on) equal
// the dense model's, and reads never allocate a page.
func TestPagedSketchMatchesDense(t *testing.T) {
	streams := []sketchStream{
		{name: "default-geometry", cfg: SketchConfig{}, updates: 20000, heavies: 16, tail: 3000, zeroPct: 5, heavyPct: 30},
		{name: "evicting-100x3", cfg: SketchConfig{Width: 100, Depth: 3, TopK: 4, Stripes: 3}, updates: 20000, heavies: 12, tail: 500, zeroPct: 10, heavyPct: 20},
		{name: "tail-only-64x2", cfg: SketchConfig{Width: 64, Depth: 2, TopK: 8, Stripes: 2}, updates: 5000, tail: 2000, zeroPct: 2},
		{name: "sparse-1000x5", cfg: SketchConfig{Width: 1000, Depth: 5, TopK: 16, Stripes: 4}, updates: 300, heavies: 4, tail: 40, zeroPct: 20, heavyPct: 50},
	}
	for _, s := range streams {
		for seed := int64(1); seed <= 3; seed++ {
			for _, planes := range []bool{false, true} {
				cfg := s.cfg
				cfg.WirePlanes = planes
				fs, ds := NewFlowSketch(cfg), newDenseSketch(cfg)
				flows := s.run(seed, fs, ds)
				tag := s.name + "/seed " + strconv.FormatInt(seed, 10) + "/planes " + strconv.FormatBool(planes)

				pages := residentPages(fs)
				for i := 0; i < 500; i++ {
					flows = append(flows, FlowID("unseen-"+strconv.Itoa(i)))
				}
				for _, f := range flows {
					gp, gb := fs.Estimate(f)
					if wp, wb := ds.Estimate(f); gp != wp || gb != wb {
						t.Fatalf("%s: Estimate(%s) = %d/%d; dense %d/%d", tag, f, gp, gb, wp, wb)
					}
				}
				if got := residentPages(fs); got != pages {
					t.Fatalf("%s: estimates allocated pages: %d → %d", tag, pages, got)
				}
				gp, gb := fs.Totals()
				if wp, wb := ds.Totals(); gp != wp || gb != wb {
					t.Fatalf("%s: Totals = %d/%d; dense %d/%d", tag, gp, gb, wp, wb)
				}
				if fs.Epoch() != ds.epoch {
					t.Fatalf("%s: Epoch = %d; dense %d", tag, fs.Epoch(), ds.epoch)
				}
				if got, want := fs.Encode(), ds.Encode(); !bytes.Equal(got, want) {
					t.Fatalf("%s: Encode differs from dense: %d vs %d bytes", tag, len(got), len(want))
				}
			}
		}
	}

	// Empty batches raise no cell, so they page nothing in.
	fs := NewFlowSketch(SketchConfig{})
	for i := 0; i < 1000; i++ {
		fs.Update(FlowID("empty-"+strconv.Itoa(i)), 0, 0)
	}
	if n := residentPages(fs); n != 0 {
		t.Fatalf("empty batches allocated %d pages", n)
	}
}

// TestSketchResidentFootprint sizes the sketches the way sim-fleet runs
// them: 64 default-geometry sketches, 16 flows each. Only the pages those
// flows touch may be resident, so the live heap grows by far less than
// the dense bound (MemoryBytes, 2.15 MB) per sketch.
func TestSketchResidentFootprint(t *testing.T) {
	const (
		sketches = 64
		flows    = 16
		perLimit = 256 << 10
	)
	ids := make([]FlowID, sketches*flows)
	for i := range ids {
		ids[i] = FlowID("f" + strconv.Itoa(i/flows) + "-" + strconv.Itoa(i%flows))
	}
	before := heapAlloc()
	all := make([]*FlowSketch, sketches)
	for i := range all {
		all[i] = NewFlowSketch(SketchConfig{})
		for r := 0; r < 10; r++ {
			for _, f := range ids[i*flows : (i+1)*flows] {
				all[i].Update(f, 32, 48000)
			}
		}
	}
	per := (int64(heapAlloc()) - int64(before)) / sketches
	runtime.KeepAlive(all)
	t.Logf("resident %d B per sketch with %d flows (dense bound %d B)", per, flows, all[0].MemoryBytes())
	if per > perLimit {
		t.Fatalf("resident %d B per sketch; limit %d B", per, perLimit)
	}
}

// FuzzDecodeSketch: any input either errors or decodes to a summary whose
// top-k fits its declared cap and whose planes, when present, hold
// Stripes·Depth·Width cells; estimating from it must not panic.
func FuzzDecodeSketch(f *testing.F) {
	for _, planes := range []bool{false, true} {
		fs := NewFlowSketch(SketchConfig{Width: 16, Depth: 2, TopK: 4, Stripes: 2, WirePlanes: planes})
		for i := 0; i < 12; i++ {
			fs.Update(FlowID("f"+strconv.Itoa(i)), uint64(i+1), uint64(i+1)*100)
		}
		f.Add(fs.Encode())
	}
	hostile := hostileSketchBlobs()
	names := make([]string, 0, len(hostile))
	for name := range hostile {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		f.Add(hostile[name])
	}
	f.Fuzz(func(t *testing.T, blob []byte) {
		s, err := DecodeSketch(blob)
		if err != nil {
			return
		}
		if len(s.Top) > s.TopKCap {
			t.Fatalf("%d top flows over cap %d", len(s.Top), s.TopKCap)
		}
		if s.HasPlanes() {
			cells := s.Stripes * s.Depth * s.Width
			if len(s.pkts) != cells || len(s.bytes) != cells {
				t.Fatalf("planes of %d/%d cells; want %d", len(s.pkts), len(s.bytes), cells)
			}
		}
		s.Estimate("f0")
	})
}
