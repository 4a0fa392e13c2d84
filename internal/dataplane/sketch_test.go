package dataplane

import (
	"fmt"
	"math/rand"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"
)

// --- Properties of the count-min planes -------------------------------

// TestSketchNeverUndercounts: the defining count-min property. For any
// workload, Estimate(flow) ≥ the true count, per plane — the sketch may
// overcount on collisions but can never lose traffic.
func TestSketchNeverUndercounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fs := NewFlowSketch(SketchConfig{Width: 256, Depth: 3, TopK: 8, Stripes: 2})
	type truth struct{ pkts, byts uint64 }
	want := make(map[FlowID]truth)
	for i := 0; i < 20000; i++ {
		f := FlowID("flow-" + strconv.Itoa(rng.Intn(3000)))
		p := uint64(rng.Intn(16) + 1)
		b := p * uint64(rng.Intn(1500)+64)
		fs.Update(f, p, b)
		tr := want[f]
		tr.pkts += p
		tr.byts += b
		want[f] = tr
	}
	for f, tr := range want {
		gotP, gotB := fs.Estimate(f)
		if gotP < tr.pkts {
			t.Fatalf("flow %s: packet estimate %d < true %d", f, gotP, tr.pkts)
		}
		if gotB < tr.byts {
			t.Fatalf("flow %s: byte estimate %d < true %d", f, gotB, tr.byts)
		}
	}
	totP, totB := fs.Totals()
	var wantP, wantB uint64
	for _, tr := range want {
		wantP += tr.pkts
		wantB += tr.byts
	}
	if totP != wantP || totB != wantB {
		t.Fatalf("Totals = %d pkts / %d bytes; want %d / %d", totP, totB, wantP, wantB)
	}
}

// TestSketchErrorBound: the classic ε·N guarantee. With ε = e/width and
// δ = e^−depth, the fraction of flows whose overcount exceeds ε·N must
// not exceed δ (conservative update does strictly better; the assertion
// allows 2δ of slack so an unlucky seed cannot flake the build).
func TestSketchErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := SketchConfig{Width: 1024, Depth: 4, TopK: 16, Stripes: 4}
	fs := NewFlowSketch(cfg)
	want := make(map[FlowID]uint64)
	const flows = 40000
	for i := 0; i < flows; i++ {
		// Zipf-ish mix: a few heavy flows, a long tail of small ones.
		f := FlowID("f" + strconv.Itoa(i))
		p := uint64(1)
		if i%1000 == 0 {
			p = uint64(rng.Intn(5000) + 1000)
		}
		fs.Update(f, p, p*100)
		want[f] += p
	}
	totP, _ := fs.Totals()
	bound := uint64(cfg.Epsilon() * float64(totP))
	var over int
	for f, tr := range want {
		got, _ := fs.Estimate(f)
		if got-tr > bound {
			over++
		}
	}
	maxOver := int(2 * cfg.DeltaProb() * float64(flows))
	if over > maxOver {
		t.Fatalf("%d/%d flows overcount past ε·N = %d (allowed %d at 2δ)",
			over, flows, bound, maxOver)
	}
	t.Logf("ε·N = %d pkts; %d/%d flows past the bound (2δ allowance %d)",
		bound, over, flows, maxOver)
}

// --- Heavy-hitter exactness -------------------------------------------

// TestSketchTopKExact: flows admitted to the heavy-hitter table on their
// first packet carry error 0, survive a large tail, and decode from the
// snapshot with their exact counts.
func TestSketchTopKExact(t *testing.T) {
	fs := NewFlowSketch(SketchConfig{Width: 4096, Depth: 4, TopK: 64, Stripes: 8})
	const heavies = 32
	want := make(map[string]uint64, heavies)
	for i := 0; i < heavies; i++ {
		f := FlowID("heavy-" + strconv.Itoa(i))
		fs.Update(f, 1_000_000, 1_500_000_000)
		want[string(f)] = 1_000_000
	}
	// A tail two orders of magnitude larger in cardinality.
	for i := 0; i < 100000; i++ {
		fs.Update(FlowID("tail-"+strconv.Itoa(i)), uint64(i%3+1), 1500)
	}
	// Tracked flows keep counting exactly after the tail churned the sketch.
	for i := 0; i < heavies; i++ {
		f := FlowID("heavy-" + strconv.Itoa(i))
		fs.Update(f, 5, 7500)
		want[string(f)] += 5
	}

	sum, err := DecodeSketch(fs.Encode())
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]TopFlow)
	for _, tf := range sum.Top {
		got[tf.Flow] = tf
	}
	for f, pkts := range want {
		tf, ok := got[f]
		if !ok {
			t.Fatalf("heavy flow %s missing from decoded top-k", f)
		}
		if !tf.Exact() {
			t.Fatalf("heavy flow %s not exact: err %d pkts / %d bytes", f, tf.ErrPkts, tf.ErrBytes)
		}
		if tf.Pkts != pkts {
			t.Fatalf("heavy flow %s: top-k says %d pkts; want %d", f, tf.Pkts, pkts)
		}
	}
	// The snapshot is sorted heaviest-first.
	for i := 1; i < len(sum.Top); i++ {
		if sum.Top[i].Pkts > sum.Top[i-1].Pkts {
			t.Fatalf("top-k not sorted: [%d]=%d > [%d]=%d", i, sum.Top[i].Pkts, i-1, sum.Top[i-1].Pkts)
		}
	}
}

// TestSketchSmallFlowSetAllExact: with fewer flows than the table holds,
// sketch mode is lossless — every flow appears with its exact counts.
func TestSketchSmallFlowSetAllExact(t *testing.T) {
	fs := NewFlowSketch(SketchConfig{Width: 64, Depth: 2, TopK: 32, Stripes: 2})
	rng := rand.New(rand.NewSource(3))
	want := make(map[string][2]uint64)
	for i := 0; i < 20; i++ {
		f := "flow" + strconv.Itoa(i)
		for j := 0; j < 5; j++ {
			p := uint64(rng.Intn(100) + 1)
			b := p * 800
			fs.Update(FlowID(f), p, b)
			w := want[f]
			want[f] = [2]uint64{w[0] + p, w[1] + b}
		}
	}
	sum, err := DecodeSketch(fs.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Top) != len(want) {
		t.Fatalf("decoded %d top flows; want all %d", len(sum.Top), len(want))
	}
	for _, tf := range sum.Top {
		w, ok := want[tf.Flow]
		if !ok || !tf.Exact() || tf.Pkts != w[0] || tf.Bytes != w[1] {
			t.Fatalf("flow %s: got %d/%d exact=%v; want %d/%d exact", tf.Flow, tf.Pkts, tf.Bytes, tf.Exact(), w[0], w[1])
		}
	}
}

// --- Encode / decode --------------------------------------------------

// TestSketchEncodeDecodeRoundTrip checks the blob against the live
// sketch, with and without the count-min planes.
func TestSketchEncodeDecodeRoundTrip(t *testing.T) {
	for _, planes := range []bool{false, true} {
		cfg := SketchConfig{Width: 128, Depth: 3, TopK: 8, Stripes: 2, WirePlanes: planes}
		fs := NewFlowSketch(cfg)
		for i := 0; i < 500; i++ {
			fs.Update(FlowID("f"+strconv.Itoa(i%40)), uint64(i%7+1), uint64(i%7+1)*500)
		}
		blob := fs.Encode()
		if ep, ok := SketchEpoch(blob); !ok || ep != fs.Epoch() {
			t.Fatalf("planes=%v: SketchEpoch = %d,%v; want %d,true", planes, ep, ok, fs.Epoch())
		}
		sum, err := DecodeSketch(blob)
		if err != nil {
			t.Fatalf("planes=%v: %v", planes, err)
		}
		if sum.Width != cfg.Width || sum.Depth != cfg.Depth || sum.Stripes != cfg.Stripes || sum.TopKCap != cfg.TopK {
			t.Fatalf("planes=%v: geometry %d/%d/%d/%d does not match config", planes, sum.Width, sum.Depth, sum.Stripes, sum.TopKCap)
		}
		totP, totB := fs.Totals()
		if sum.TotalPkts != totP || sum.TotalBytes != totB {
			t.Fatalf("planes=%v: totals %d/%d; want %d/%d", planes, sum.TotalPkts, sum.TotalBytes, totP, totB)
		}
		if sum.Epoch != fs.Epoch() {
			t.Fatalf("planes=%v: epoch %d; want %d", planes, sum.Epoch, fs.Epoch())
		}
		if sum.HasPlanes() != planes {
			t.Fatalf("HasPlanes = %v; want %v", sum.HasPlanes(), planes)
		}
		if len(sum.Top) == 0 || len(sum.Top) > cfg.TopK {
			t.Fatalf("planes=%v: decoded %d top flows (cap %d)", planes, len(sum.Top), cfg.TopK)
		}
		if planes {
			// Decoded planes reproduce the live estimates exactly.
			for i := 0; i < 40; i++ {
				f := "f" + strconv.Itoa(i)
				wantP, wantB := fs.Estimate(FlowID(f))
				gotP, gotB, ok := sum.Estimate(f)
				if !ok || gotP != wantP || gotB != wantB {
					t.Fatalf("decoded estimate(%s) = %d/%d,%v; live %d/%d", f, gotP, gotB, ok, wantP, wantB)
				}
			}
		} else if _, _, ok := sum.Estimate("f0"); ok {
			t.Fatal("Estimate succeeded without planes")
		}
	}
}

// TestSketchEpochAdvances: the epoch moves on every update (the delta
// codec's resend trigger) and is stable across snapshots when quiescent.
func TestSketchEpochAdvances(t *testing.T) {
	fs := NewFlowSketch(SketchConfig{Width: 64, Depth: 2, TopK: 4, Stripes: 1})
	if fs.Epoch() != 0 {
		t.Fatalf("fresh sketch epoch = %d", fs.Epoch())
	}
	fs.Update("a", 1, 100)
	fs.Update("b", 2, 200)
	if fs.Epoch() != 2 {
		t.Fatalf("epoch after 2 updates = %d", fs.Epoch())
	}
	b1, b2 := fs.Encode(), fs.Encode()
	if string(b1) != string(b2) {
		t.Fatal("quiescent snapshots differ")
	}
}

// TestDecodeSketchRejectsHostileBlobs: every malformed-input class the
// decoder guards against must error, not panic or allocate per claim.
func TestDecodeSketchRejectsHostileBlobs(t *testing.T) {
	for name, blob := range hostileSketchBlobs() {
		if _, err := DecodeSketch(blob); err == nil {
			t.Errorf("%s: decode succeeded", name)
		}
	}
	if _, err := DecodeSketch(goodSketchBlob()); err != nil {
		t.Fatalf("control blob rejected: %v", err)
	}
}

// goodSketchBlob is the well-formed blob the hostile cases are cut from.
func goodSketchBlob() []byte {
	fs := NewFlowSketch(SketchConfig{Width: 64, Depth: 2, TopK: 4, Stripes: 1})
	fs.Update("x", 3, 300)
	return fs.Encode()
}

// hostileSketchBlobs holds one malformed blob per input class the
// decoder guards against.
func hostileSketchBlobs() map[string][]byte {
	good := goodSketchBlob()
	return map[string][]byte{
		"empty":           {},
		"short":           good[:3],
		"bad magic":       append([]byte{'X', 'Y'}, good[2:]...),
		"bad version":     append([]byte{'F', 'K', 9}, good[3:]...),
		"truncated body":  good[:len(good)-2],
		"trailing bytes":  append(append([]byte{}, good...), 0),
		"zero width":      {'F', 'K', 1, 0, 2, 1, 4, 0, 0, 0, 0, 0},
		"width over max":  {'F', 'K', 1, 0xFF, 0xFF, 0xFF, 0x7F, 2, 1, 4, 0, 0, 0, 0, 0},
		"topk over frame": {'F', 'K', 1, 64, 2, 1, 4, 0, 0, 0, 0, 200},
	}
}

// --- Concurrency (meaningful under -race) -----------------------------

// TestSketchConcurrentUpdateSnapshot hammers Update from many goroutines
// while concurrent readers snapshot, estimate, and total. Afterwards the
// totals must equal the injected sums exactly and tracked flows must be
// exact — no update may be torn or lost.
func TestSketchConcurrentUpdateSnapshot(t *testing.T) {
	fs := NewFlowSketch(SketchConfig{Width: 512, Depth: 3, TopK: 32, Stripes: 4})
	const (
		workers = 8
		perG    = 4992 // divisible by flows: every flow sees the same count
		flows   = 16   // few enough that all stay tracked exactly
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				fs.Update(FlowID("f"+strconv.Itoa(i%flows)), 2, 300)
			}
		}(w)
	}
	stop := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < 3; r++ {
		rwg.Add(1)
		go func() {
			defer rwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := DecodeSketch(fs.Encode()); err != nil {
					t.Error(err)
					return
				}
				fs.Estimate("f0")
				fs.Totals()
			}
		}()
	}
	wg.Wait()
	close(stop)
	rwg.Wait()

	wantPkts := uint64(workers * perG * 2)
	if totP, totB := fs.Totals(); totP != wantPkts || totB != wantPkts/2*300 {
		t.Fatalf("totals %d/%d; want %d/%d", totP, totB, wantPkts, wantPkts/2*300)
	}
	sum, err := DecodeSketch(fs.Encode())
	if err != nil {
		t.Fatal(err)
	}
	perFlow := wantPkts / flows
	for _, tf := range sum.Top {
		if !tf.Exact() || tf.Pkts != perFlow {
			t.Fatalf("flow %s: %d pkts exact=%v; want %d exact", tf.Flow, tf.Pkts, tf.Exact(), perFlow)
		}
	}
}

// --- The 1M-flow lab --------------------------------------------------

// heapAlloc returns the live heap after a full GC.
func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// legacyFlowAttr mirrors what the legacy exact path keeps per flow: two
// interned attribute-name strings and two live attr values (the registry
// map entries and the per-record attrs of rule_<flow>_packets/_bytes).
type legacyFlowAttr struct {
	pktsName, bytsName string
	pkts, byts         float64
}

// TestSketchMillionFlowsLab is the acceptance lab: 1M distinct flows
// through the sketch. It asserts
//
//  1. sketch memory is constant — the live heap does not grow with flow
//     count, and the configured footprint is ≥100× below what the legacy
//     per-flow attr path costs at 1M flows (measured on a real slice of
//     the legacy representation, then extrapolated — the legacy path
//     cannot even reach 1M, its name registry caps at 16,384);
//  2. heavy hitters decode with exact counts;
//  3. tail estimates stay within ε·N;
//  4. the vswitch Count hot path with the sketch enabled stays within a
//     generous factor of the rule-counter-only baseline (the precise
//     ratio is recorded in EXPERIMENTS.md; the gate only catches a
//     pathological slowdown).
func TestSketchMillionFlowsLab(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-flow lab skipped in -short")
	}
	const (
		heavies = 64
		// heavyPkts is far above anything conservative-update inflation can
		// reach for a tail flow (cells are bounded by per-stripe traffic
		// plus heavy collisions), so the true top-64 is unambiguous.
		heavyPkts  = uint64(1) << 40
		tailFlows  = 1_000_000
		memRatio   = 100.0
		throttleX  = 8.0 // pathology gate, not the reported number
		legacyMeas = 16384
	)
	cfg := SketchConfig{Width: 2048, Depth: 4, TopK: heavies, Stripes: 4}
	fs := NewFlowSketch(cfg)

	want := make(map[string]uint64, heavies)
	for i := 0; i < heavies; i++ {
		f := "heavy-" + strconv.Itoa(i)
		fs.Update(FlowID(f), heavyPkts, heavyPkts*1500)
		want[f] = heavyPkts
	}

	// 1M-flow tail. Flow IDs are built outside the measured heap window
	// in chunks so the ID strings themselves (transient input, identical
	// for both modes) don't dominate the measurement.
	before := heapAlloc()
	var ids [4096]FlowID
	for base := 0; base < tailFlows; base += len(ids) {
		for i := range ids {
			ids[i] = FlowID("tail-" + strconv.Itoa(base+i))
		}
		for _, f := range ids {
			fs.Update(f, 1, 1500)
		}
	}
	grew := int64(heapAlloc()) - int64(before)
	if grew > 8<<20 {
		t.Fatalf("sketch heap grew %d bytes across 1M flows; want ~0 (constant memory)", grew)
	}

	// Legacy cost, measured on the largest population the legacy path can
	// legally hold (the 16,384-name registry cap), then scaled to 1M.
	lb := heapAlloc()
	legacy := make(map[string]*legacyFlowAttr, legacyMeas)
	for i := 0; i < legacyMeas; i++ {
		f := "tail-" + strconv.Itoa(i)
		legacy[f] = &legacyFlowAttr{
			pktsName: "rule_" + f + "_packets",
			bytsName: "rule_" + f + "_bytes",
			pkts:     1, byts: 1500,
		}
	}
	legacyPerFlow := float64(int64(heapAlloc())-int64(lb)) / legacyMeas
	runtime.KeepAlive(legacy)
	legacyAt1M := legacyPerFlow * tailFlows
	sketchBytes := float64(fs.MemoryBytes())
	t.Logf("sketch %d B fixed; legacy %.0f B/flow → %.0f MB at 1M flows (%.0f× sketch); heap grew %d B over the tail",
		fs.MemoryBytes(), legacyPerFlow, legacyAt1M/1e6, legacyAt1M/sketchBytes, grew)
	if legacyAt1M < memRatio*sketchBytes {
		t.Fatalf("legacy at 1M flows = %.0f B, under %.0f× sketch footprint %.0f B", legacyAt1M, memRatio, sketchBytes)
	}

	// Heavy hitters are exact through encode/decode.
	sum, err := DecodeSketch(fs.Encode())
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[string]TopFlow, len(sum.Top))
	for _, tf := range sum.Top {
		got[tf.Flow] = tf
	}
	for f, pkts := range want {
		tf, ok := got[f]
		if !ok || !tf.Exact() || tf.Pkts != pkts {
			t.Fatalf("heavy flow %s at 1M flows: got %+v; want exact %d pkts", f, tf, pkts)
		}
	}

	// Tail estimates obey ε·N (sampled; the full scan is the property
	// test's job at smaller scale).
	totP, _ := fs.Totals()
	bound := uint64(cfg.Epsilon() * float64(totP))
	var over int
	for i := 0; i < 1000; i++ {
		est, _ := fs.Estimate(FlowID("tail-" + strconv.Itoa(i*997)))
		if est-1 > bound {
			over++
		}
	}
	if maxOver := int(2*cfg.DeltaProb()*1000) + 1; over > maxOver {
		t.Fatalf("%d/1000 sampled tail flows past ε·N = %d (allowed %d)", over, bound, maxOver)
	}

	// Hot-path throughput: Count with sketch vs rule counters only.
	base := NewVSwitch("m0/vswitch-base")
	base.InstallToPNIC("bench")
	br := base.Lookup("bench")
	sk := NewVSwitch("m0/vswitch-sketch")
	sk.EnableFlowSketch(cfg)
	sk.InstallToPNIC("bench")
	sr := sk.Lookup("bench")
	b := Batch{Packets: 32, Bytes: 48000}
	const iters = 1_000_000
	t0 := time.Now()
	for i := 0; i < iters; i++ {
		base.Count(br, b)
	}
	baseDur := time.Since(t0)
	t0 = time.Now()
	for i := 0; i < iters; i++ {
		sk.Count(sr, b)
	}
	skDur := time.Since(t0)
	ratio := float64(skDur) / float64(baseDur)
	t.Logf("vswitch Count: baseline %.1f ns/op, sketch %.1f ns/op (%.2fx)",
		float64(baseDur)/iters, float64(skDur)/iters, ratio)
	if ratio > throttleX {
		t.Fatalf("sketch-enabled Count is %.1fx baseline; pathology gate is %.0fx", ratio, throttleX)
	}
}

// --- Allocation budget ------------------------------------------------

// TestSketchUpdateAllocBudget pins the steady-state Update path at its
// measured value: a mix of tracked heavy-hitter increments and
// non-admitted tail updates must not allocate.
func TestSketchUpdateAllocBudget(t *testing.T) {
	const budget = 0
	fs := NewFlowSketch(SketchConfig{Width: 1024, Depth: 4, TopK: 16, Stripes: 2})
	// Heavy entries large enough that tail estimates never trigger an
	// eviction (admission churns the index map) during the window.
	tracked := make([]FlowID, 16)
	for i := range tracked {
		tracked[i] = FlowID("heavy-" + strconv.Itoa(i))
		fs.Update(tracked[i], 1<<40, 1<<42)
	}
	tail := make([]FlowID, 64)
	for i := range tail {
		tail[i] = FlowID("tail-" + strconv.Itoa(i))
	}
	var n int
	step := func() {
		fs.Update(tracked[n%len(tracked)], 4, 6000)
		fs.Update(tail[n%len(tail)], 1, 1500)
		n++
	}
	for i := 0; i < 200; i++ {
		step()
	}
	got := testing.AllocsPerRun(500, step)
	t.Logf("steady-state sketch allocs per 2 updates = %.2f (budget %d)", got, budget)
	if got > budget {
		t.Fatalf("sketch allocs = %.2f exceeds budget %d", got, budget)
	}
}

// BenchmarkSketchUpdate is the datapath cost of one Update: tracked flow
// (the common case — a rule's flow stays in the table) on a warmed
// sketch.
func BenchmarkSketchUpdate(b *testing.B) {
	fs := NewFlowSketch(SketchConfig{})
	flows := make([]FlowID, 256)
	for i := range flows {
		flows[i] = FlowID("bench-flow-" + strconv.Itoa(i))
		fs.Update(flows[i], 1, 1500)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.Update(flows[i&255], 32, 48000)
	}
}

// BenchmarkSketchUpdateParallel measures stripe-contention behavior: all
// cores updating disjoint flow sets.
func BenchmarkSketchUpdateParallel(b *testing.B) {
	fs := NewFlowSketch(SketchConfig{})
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		flows := make([]FlowID, 64)
		for i := range flows {
			flows[i] = FlowID(fmt.Sprintf("p-%p-%d", &flows, i))
		}
		i := 0
		for pb.Next() {
			fs.Update(flows[i&63], 32, 48000)
			i++
		}
	})
}

// BenchmarkSketchEncode is the snapshot cost at sweep cadence (the
// DUMP-SKETCH reply body).
func BenchmarkSketchEncode(b *testing.B) {
	fs := NewFlowSketch(SketchConfig{})
	for i := 0; i < 100000; i++ {
		fs.Update(FlowID("f"+strconv.Itoa(i%2000)), 1, 1500)
	}
	buf := fs.Encode()
	b.SetBytes(int64(len(buf)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = fs.AppendEncode(buf[:0])
	}
}
