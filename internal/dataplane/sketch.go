package dataplane

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// FlowSketch summarizes per-flow traffic in bounded memory: a count-min
// sketch (conservative update, separate packet and byte planes) paired
// with an exact top-k heavy-hitter table, maintained inline on the
// VSwitch datapath. It replaces the O(flows) per-rule counter
// enumeration — and the one-extension-AttrID-per-flow registry bill —
// with a fixed-size summary whose heavy-hitter values are exact and
// whose tail estimates obey the classic count-min bound: estimate ≥
// true, and P[estimate − true > ε·N] ≤ δ with ε = e/width, δ = e^−depth
// (the "Lean Algorithms" sketch pair, arXiv:1911.06951).
//
// Memory: the planes are stored in fixed-size pages allocated on the
// first write that raises one of their cells, and a page never written
// reads as zeros. Resident size therefore grows with the cells the
// observed flows touch (Depth per flow), up to the dense bound that
// MemoryBytes reports; estimates and encoded blobs are those of dense
// planes.
//
// Concurrency: flows hash onto a fixed set of stripes, each owning its
// own sketch planes and top-k table behind a private mutex, so datapath
// goroutines contend only when their flows collide on a stripe. The
// update path performs zero heap allocations in steady state (pinned by
// TestSketchUpdateAllocBudget).
//
// Exactness: a top-k entry tracks the flow's packets/bytes exactly from
// the moment it is admitted, plus the count-min estimate it was admitted
// with. A flow admitted on its first packet therefore carries error 0 —
// its reported value is exact — and the per-entry ErrPkts/ErrBytes bound
// the overcount for flows admitted later. Per-stripe tables hold the
// full K entries each, which makes the merged global top-k sound: a flow
// among the global top K has at most K−1 larger flows anywhere, so it
// cannot have been evicted from its own stripe's K-entry table.
type FlowSketch struct {
	cfg     SketchConfig
	stripes []sketchStripe
	epoch   atomic.Uint64
}

// SketchConfig sizes a FlowSketch. The error bound of the count-min
// planes is ε = e/Width with confidence 1−δ, δ = e^−Depth.
type SketchConfig struct {
	// Width is the number of counters per sketch row. Default 4096
	// (ε ≈ 6.6e-4).
	Width int
	// Depth is the number of rows (independent hash functions). Default 4
	// (δ ≈ 1.8%).
	Depth int
	// TopK is the heavy-hitter table capacity per stripe, and the size of
	// the merged top-k in snapshots. Default 64.
	TopK int
	// Stripes is the lock-striping factor. Default 8.
	Stripes int
	// WirePlanes includes the raw count-min planes in encoded snapshots,
	// letting consumers estimate arbitrary (non-top-k) flows instead of
	// only bounding them by ε·N. Costs ~Stripes·Depth·Width varints per
	// snapshot, so it defaults to off for sweep-cadence telemetry.
	WirePlanes bool
}

func (c SketchConfig) withDefaults() SketchConfig {
	if c.Width <= 0 {
		c.Width = 4096
	}
	if c.Depth <= 0 {
		c.Depth = 4
	}
	if c.TopK <= 0 {
		c.TopK = 64
	}
	if c.Stripes <= 0 {
		c.Stripes = 8
	}
	return c
}

// Epsilon is the relative error bound of the configured planes: the
// count-min overestimate exceeds Epsilon()·N (N = total packets or bytes)
// with probability at most DeltaProb().
func (c SketchConfig) Epsilon() float64 { return math.E / float64(c.Width) }

// DeltaProb is the failure probability of the Epsilon bound.
func (c SketchConfig) DeltaProb() float64 { return math.Exp(-float64(c.Depth)) }

// topEntry is one heavy-hitter table slot. pkts/bytes are the count-min
// estimate at admission plus exact increments since; errPkts/errBytes are
// the admission estimates' possible overcount (0 = value is exact).
type topEntry struct {
	flow     FlowID
	pkts     uint64
	bytes    uint64
	errPkts  uint64
	errBytes uint64
}

// sketchPageCells is the number of plane cells per page (a 1 KB page).
const sketchPageCells = 64

// sketchCell is one count-min cell of both planes: a flow's packet and
// byte counters always sit at the same index, so one lookup serves both.
type sketchCell struct{ pkts, bytes uint64 }

// sketchPage is one page of a stripe's planes.
type sketchPage [sketchPageCells]sketchCell

// sketchStripe is one lock stripe: private count-min planes, a top-k
// table, and the stripe's traffic totals.
type sketchStripe struct {
	mu sync.Mutex
	// pages hold the depth × width cells, row-major, sketchPageCells to a
	// page; a nil page has never been raised and reads as zeros.
	pages   []*sketchPage
	entries []topEntry
	index   map[FlowID]int
	totPkts uint64
	totByts uint64
	_       [48]byte // pad stripes to 128 B to limit false sharing
}

// NewFlowSketch builds a sketch with the given bounds (zero fields take
// defaults).
func NewFlowSketch(cfg SketchConfig) *FlowSketch {
	cfg = cfg.withDefaults()
	fs := &FlowSketch{cfg: cfg, stripes: make([]sketchStripe, cfg.Stripes)}
	for i := range fs.stripes {
		st := &fs.stripes[i]
		st.pages = make([]*sketchPage, (cfg.Width*cfg.Depth+sketchPageCells-1)/sketchPageCells)
		st.entries = make([]topEntry, 0, cfg.TopK)
		st.index = make(map[FlowID]int, cfg.TopK)
	}
	return fs
}

// Config returns the sketch's effective (defaulted) configuration.
func (f *FlowSketch) Config() SketchConfig { return f.cfg }

// Epoch returns the summary epoch: it advances on every update, so a
// consumer that cached a snapshot at epoch E needs a new one iff the
// current epoch differs.
func (f *FlowSketch) Epoch() uint64 { return f.epoch.Load() }

// MemoryBytes is the sketch's footprint once every plane page has been
// written: the dense bound, fixed at construction, that resident size
// approaches as flows touch more cells. It does not grow past it with the
// number of distinct flows observed.
func (f *FlowSketch) MemoryBytes() int {
	per := 2*f.cfg.Width*f.cfg.Depth*8 + // both planes
		f.cfg.TopK*int(64) + // top-k entries (flow header + 4 uint64)
		f.cfg.TopK*48 // index map slots, approximate
	return f.cfg.Stripes * per
}

// fnv1a64 hashes a flow ID (inlined FNV-1a: the datapath cannot afford a
// hash.Hash allocation per batch).
func fnv1a64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// mix64 is the splitmix64 finalizer, deriving the second hash for the
// per-row positions from the first.
func mix64(h uint64) uint64 {
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// rowIdx is row d's cell index. The naive double-hashing form
// (h1 + d·h2) mod width makes full-depth collisions a 1/width² event —
// two flows agreeing on both residues collide in *every* row, and
// conservative-update writeback then snowballs one flow's count into the
// other's estimate (observed: tail flows inflated past genuine heavy
// hitters at 1M flows). Mixing before the reduction makes per-row
// collisions independent, restoring the 1/width^depth rate.
func rowIdx(h1, h2 uint64, d int, width uint64) int {
	return int(mix64(h1+uint64(d)*h2) % width)
}

// Update records a batch of the flow: pkts packets totalling byts bytes.
// Safe for concurrent use; zero allocations in steady state.
func (f *FlowSketch) Update(flow FlowID, pkts, byts uint64) {
	h1 := fnv1a64(string(flow))
	h2 := mix64(h1) | 1
	st := &f.stripes[h1%uint64(len(f.stripes))]
	width := uint64(f.cfg.Width)

	st.mu.Lock()
	st.totPkts += pkts
	st.totByts += byts

	// Conservative update: raise only the cells below the new estimate,
	// per plane, so collisions inflate the sketch as little as possible.
	estP, estB := st.rowMin(h1, h2, f.cfg.Width, f.cfg.Depth)
	estP += pkts
	estB += byts
	for d := 0; d < f.cfg.Depth; d++ {
		idx := d*f.cfg.Width + rowIdx(h1, h2, d, width)
		pg := st.pages[idx/sketchPageCells]
		if pg == nil {
			if estP == 0 && estB == 0 {
				continue // a zero cell needs no raise, so no page
			}
			pg = new(sketchPage)
			st.pages[idx/sketchPageCells] = pg
		}
		c := &pg[idx%sketchPageCells]
		if c.pkts < estP {
			c.pkts = estP
		}
		if c.bytes < estB {
			c.bytes = estB
		}
	}

	// Heavy-hitter maintenance. Tracked flows count exactly; a new flow
	// displaces the smallest entry only when its estimate beats it.
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
	st.mu.Unlock()
	f.epoch.Add(1)
}

// Estimate returns the count-min estimate of one flow's packets and
// bytes. Estimates never undercount; they overcount by at most ε·N with
// probability 1−δ.
func (f *FlowSketch) Estimate(flow FlowID) (pkts, byts uint64) {
	h1 := fnv1a64(string(flow))
	h2 := mix64(h1) | 1
	st := &f.stripes[h1%uint64(len(f.stripes))]
	st.mu.Lock()
	pkts, byts = st.rowMin(h1, h2, f.cfg.Width, f.cfg.Depth)
	st.mu.Unlock()
	return pkts, byts
}

// rowMin returns the flow's per-plane minimum over its depth cells, reading
// a nil page as zeros without allocating it. The caller holds st.mu.
func (st *sketchStripe) rowMin(h1, h2 uint64, width, depth int) (pkts, byts uint64) {
	pkts, byts = math.MaxUint64, math.MaxUint64
	for d := 0; d < depth; d++ {
		idx := d*width + rowIdx(h1, h2, d, uint64(width))
		pg := st.pages[idx/sketchPageCells]
		if pg == nil {
			return 0, 0
		}
		c := &pg[idx%sketchPageCells]
		if c.pkts < pkts {
			pkts = c.pkts
		}
		if c.bytes < byts {
			byts = c.bytes
		}
	}
	return pkts, byts
}

// appendPlane appends one plane of the stripe's cells as uvarints, a 0
// for each cell of a nil page. The caller holds st.mu.
func (st *sketchStripe) appendPlane(dst []byte, cells int, bytes bool) []byte {
	for i, pg := range st.pages {
		n := min(sketchPageCells, cells-i*sketchPageCells)
		if pg == nil {
			for ; n > 0; n-- {
				dst = append(dst, 0)
			}
			continue
		}
		for _, c := range pg[:n] {
			v := c.pkts
			if bytes {
				v = c.bytes
			}
			dst = binary.AppendUvarint(dst, v)
		}
	}
	return dst
}

// Totals returns the total packets and bytes observed (the N of the
// ε·N error bound).
func (f *FlowSketch) Totals() (pkts, byts uint64) {
	for i := range f.stripes {
		st := &f.stripes[i]
		st.mu.Lock()
		pkts += st.totPkts
		byts += st.totByts
		st.mu.Unlock()
	}
	return pkts, byts
}

// Sketch blob layout (version 1). All integers are uvarints unless
// noted. The header is fixed-position so SketchEpoch can read the epoch
// without decoding the whole summary.
//
//	'F' 'K' 0x01
//	width | depth | stripes | topk
//	epoch | totalPkts | totalBytes
//	u8 flags (bit0: count-min planes present)
//	uvarint n, n·( uvarint len + flow bytes,
//	               pkts | bytes | errPkts | errBytes )       merged top-k
//	planes?: stripes·depth·width packet cells, then byte cells
const (
	sketchMagic0  = 'F'
	sketchMagic1  = 'K'
	sketchVersion = 1

	sketchFlagPlanes = 1 << 0

	// Decode guards: reject blobs whose claimed geometry could not come
	// from a sane config, so a hostile frame cannot balloon memory.
	sketchMaxWidth   = 1 << 20
	sketchMaxDepth   = 64
	sketchMaxStripes = 256
	sketchMaxTopK    = 1 << 14
)

// AppendEncode appends the sketch's encoded snapshot to dst and returns
// the extended slice. Stripes are locked one at a time, so the snapshot
// is per-stripe consistent (counters are monotone; a sweep-cadence reader
// cannot tell the difference).
func (f *FlowSketch) AppendEncode(dst []byte) []byte {
	cfg := f.cfg
	dst = append(dst, sketchMagic0, sketchMagic1, sketchVersion)
	dst = binary.AppendUvarint(dst, uint64(cfg.Width))
	dst = binary.AppendUvarint(dst, uint64(cfg.Depth))
	dst = binary.AppendUvarint(dst, uint64(cfg.Stripes))
	dst = binary.AppendUvarint(dst, uint64(cfg.TopK))
	dst = binary.AppendUvarint(dst, f.epoch.Load())
	totP, totB := f.Totals()
	dst = binary.AppendUvarint(dst, totP)
	dst = binary.AppendUvarint(dst, totB)
	var flags byte
	if cfg.WirePlanes {
		flags |= sketchFlagPlanes
	}
	dst = append(dst, flags)

	// Merge the per-stripe heavy-hitter tables and keep the global top K.
	merged := make([]topEntry, 0, cfg.Stripes*cfg.TopK)
	for i := range f.stripes {
		st := &f.stripes[i]
		st.mu.Lock()
		merged = append(merged, st.entries...)
		st.mu.Unlock()
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
		dst = binary.AppendUvarint(dst, e.pkts)
		dst = binary.AppendUvarint(dst, e.bytes)
		dst = binary.AppendUvarint(dst, e.errPkts)
		dst = binary.AppendUvarint(dst, e.errBytes)
	}

	if cfg.WirePlanes {
		for _, bytes := range [2]bool{false, true} {
			for i := range f.stripes {
				st := &f.stripes[i]
				st.mu.Lock()
				dst = st.appendPlane(dst, cfg.Width*cfg.Depth, bytes)
				st.mu.Unlock()
			}
		}
	}
	return dst
}

// Encode returns a fresh encoded snapshot.
func (f *FlowSketch) Encode() []byte { return f.AppendEncode(nil) }

// TopFlow is one decoded heavy-hitter entry. Pkts/Bytes are exact when
// ErrPkts/ErrBytes are 0 (the flow was tracked from its first packet);
// otherwise they overcount the truth by at most the Err values.
type TopFlow struct {
	Flow     string `json:"flow"`
	Pkts     uint64 `json:"pkts"`
	Bytes    uint64 `json:"bytes"`
	ErrPkts  uint64 `json:"err_pkts,omitempty"`
	ErrBytes uint64 `json:"err_bytes,omitempty"`
}

// Exact reports whether the entry's values match the true flow counts.
func (t TopFlow) Exact() bool { return t.ErrPkts == 0 && t.ErrBytes == 0 }

// SketchSummary is a decoded sketch blob: the merged top-k, the traffic
// totals behind the ε·N bound, and (when the producer included them) the
// raw count-min planes for estimating arbitrary flows.
type SketchSummary struct {
	Width, Depth, Stripes, TopKCap int
	Epoch                          uint64
	TotalPkts, TotalBytes          uint64
	Top                            []TopFlow
	// pkts/bytes hold the planes of every stripe concatenated
	// (stripe-major, then row-major); nil when the blob omitted them.
	pkts, bytes []uint64
}

// HasPlanes reports whether the summary can estimate non-top-k flows.
func (s *SketchSummary) HasPlanes() bool { return s.pkts != nil }

// Epsilon is the summary's relative error bound (e/width).
func (s *SketchSummary) Epsilon() float64 { return math.E / float64(s.Width) }

// DeltaProb is the probability the Epsilon bound fails (e^−depth).
func (s *SketchSummary) DeltaProb() float64 { return math.Exp(-float64(s.Depth)) }

// ErrBoundPkts is the absolute packet-count error bound ε·N: any flow's
// estimate (and any flow absent from the top-k) is within this of its
// true count with probability 1−DeltaProb.
func (s *SketchSummary) ErrBoundPkts() float64 { return s.Epsilon() * float64(s.TotalPkts) }

// Estimate returns the count-min estimate for an arbitrary flow. ok is
// false when the blob did not carry the planes; callers then fall back
// to the ErrBoundPkts annotation.
func (s *SketchSummary) Estimate(flow string) (pkts, byts uint64, ok bool) {
	if s.pkts == nil {
		return 0, 0, false
	}
	h1 := fnv1a64(flow)
	h2 := mix64(h1) | 1
	stripe := int(h1 % uint64(s.Stripes))
	base := stripe * s.Width * s.Depth
	pkts, byts = math.MaxUint64, math.MaxUint64
	for d := 0; d < s.Depth; d++ {
		idx := base + d*s.Width + rowIdx(h1, h2, d, uint64(s.Width))
		if s.pkts[idx] < pkts {
			pkts = s.pkts[idx]
		}
		if s.bytes[idx] < byts {
			byts = s.bytes[idx]
		}
	}
	return pkts, byts, true
}

// SketchEpoch reads the epoch out of an encoded blob without a full
// decode — the agent adapter stamps it into the attr value so delta
// codecs resend the payload only when the summary changed.
func SketchEpoch(blob []byte) (uint64, bool) {
	if len(blob) < 4 || blob[0] != sketchMagic0 || blob[1] != sketchMagic1 || blob[2] != sketchVersion {
		return 0, false
	}
	off := 3
	for i := 0; i < 4; i++ { // skip width, depth, stripes, topk
		_, n := binary.Uvarint(blob[off:])
		if n <= 0 {
			return 0, false
		}
		off += n
	}
	epoch, n := binary.Uvarint(blob[off:])
	if n <= 0 {
		return 0, false
	}
	return epoch, true
}

// sketchDec is a bounds-checked cursor over one blob.
type sketchDec struct {
	b   []byte
	off int
}

func (d *sketchDec) uvarint() (uint64, error) {
	u, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("dataplane: sketch: bad uvarint at byte %d", d.off)
	}
	d.off += n
	return u, nil
}

// DecodeSketch parses an encoded sketch blob. Every geometry field is
// validated against the same bounds a sane config could produce, and
// every count against the remaining payload, so truncated or hostile
// blobs error instead of panicking or ballooning memory.
func DecodeSketch(blob []byte) (*SketchSummary, error) {
	if len(blob) < 4 {
		return nil, fmt.Errorf("dataplane: sketch blob of %d bytes too short", len(blob))
	}
	if blob[0] != sketchMagic0 || blob[1] != sketchMagic1 {
		return nil, fmt.Errorf("dataplane: bad sketch magic %#x %#x", blob[0], blob[1])
	}
	if blob[2] != sketchVersion {
		return nil, fmt.Errorf("dataplane: unsupported sketch version %d", blob[2])
	}
	d := sketchDec{b: blob, off: 3}
	s := &SketchSummary{}
	geom := [4]struct {
		dst *int
		max int
		nm  string
	}{
		{&s.Width, sketchMaxWidth, "width"},
		{&s.Depth, sketchMaxDepth, "depth"},
		{&s.Stripes, sketchMaxStripes, "stripes"},
		{&s.TopKCap, sketchMaxTopK, "topk"},
	}
	for _, g := range geom {
		u, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if u == 0 || u > uint64(g.max) {
			return nil, fmt.Errorf("dataplane: sketch %s %d outside [1,%d]", g.nm, u, g.max)
		}
		*g.dst = int(u)
	}
	var err error
	if s.Epoch, err = d.uvarint(); err != nil {
		return nil, err
	}
	if s.TotalPkts, err = d.uvarint(); err != nil {
		return nil, err
	}
	if s.TotalBytes, err = d.uvarint(); err != nil {
		return nil, err
	}
	if d.off >= len(d.b) {
		return nil, fmt.Errorf("dataplane: sketch blob truncated before flags")
	}
	flags := d.b[d.off]
	d.off++

	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if n > uint64(s.TopKCap) || n > uint64(len(d.b)-d.off) {
		return nil, fmt.Errorf("dataplane: sketch top-k count %d exceeds cap %d or frame", n, s.TopKCap)
	}
	s.Top = make([]TopFlow, 0, n)
	for i := uint64(0); i < n; i++ {
		fl, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if fl > uint64(len(d.b)-d.off) {
			return nil, fmt.Errorf("dataplane: sketch flow name of %d bytes exceeds frame", fl)
		}
		tf := TopFlow{Flow: string(d.b[d.off : d.off+int(fl)])}
		d.off += int(fl)
		if tf.Pkts, err = d.uvarint(); err != nil {
			return nil, err
		}
		if tf.Bytes, err = d.uvarint(); err != nil {
			return nil, err
		}
		if tf.ErrPkts, err = d.uvarint(); err != nil {
			return nil, err
		}
		if tf.ErrBytes, err = d.uvarint(); err != nil {
			return nil, err
		}
		s.Top = append(s.Top, tf)
	}

	if flags&sketchFlagPlanes != 0 {
		cells := s.Stripes * s.Depth * s.Width
		if cells > len(d.b)-d.off { // ≥1 byte per cell
			return nil, fmt.Errorf("dataplane: sketch planes of %d cells exceed frame", cells)
		}
		s.pkts = make([]uint64, cells)
		s.bytes = make([]uint64, cells)
		for i := 0; i < cells; i++ {
			if s.pkts[i], err = d.uvarint(); err != nil {
				return nil, err
			}
		}
		for i := 0; i < cells; i++ {
			if s.bytes[i], err = d.uvarint(); err != nil {
				return nil, err
			}
		}
	}
	if d.off != len(d.b) {
		return nil, fmt.Errorf("dataplane: sketch blob has %d trailing bytes", len(d.b)-d.off)
	}
	return s, nil
}
