package agent

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"perfsight/internal/core"
	"perfsight/internal/dataplane"
	"perfsight/internal/machine"
	"perfsight/internal/middlebox"
	"perfsight/internal/procfs"
)

// vmMachine builds a machine with n sink VMs.
func vmMachine(n int) *machine.Machine {
	m := machine.New(machine.DefaultConfig("m0"))
	for i := 0; i < n; i++ {
		vm := core.VMID(fmt.Sprintf("vm%d", i))
		m.AddVM(vm, 1.0, 1e9, middlebox.NewSink(core.ElementID(fmt.Sprintf("m0/%s/app", vm)), 1e9))
	}
	return m
}

// TestFetchReadsEachFileOnce: a whole-inventory fetch renders every
// mounted /proc file exactly once however many elements live in it, and
// the next fetch renders each again — nothing carries over.
func TestFetchReadsEachFileOnce(t *testing.T) {
	m := vmMachine(4)
	backing, fs := procfs.New(), procfs.New()
	buildTestAgent(t, m, BuildOptions{FS: backing})
	a := buildTestAgent(t, m, BuildOptions{FS: fs})
	// Interpose a counter on every file the agent under test reads.
	reads := map[string]*atomic.Int64{}
	for _, path := range fs.List() {
		n := new(atomic.Int64)
		reads[path] = n
		fs.Mount(path, func() []byte {
			n.Add(1)
			data, err := backing.ReadFile(path)
			if err != nil {
				t.Error(err)
			}
			return data
		})
	}
	if len(reads) != 2+2*4 {
		t.Fatalf("mounted files: %v", fs.List())
	}
	for fetch := int64(1); fetch <= 2; fetch++ {
		recs, err := a.Fetch(nil, nil, true)
		if err != nil || len(recs) != len(a.Elements()) {
			t.Fatalf("fetch %d: %d records, %v", fetch, len(recs), err)
		}
		for path, n := range reads {
			if got := n.Load(); got != fetch {
				t.Errorf("after %d fetches %s was rendered %d times", fetch, path, got)
			}
		}
	}
}

// TestFailedSourceFailsItsElements: a file that cannot be parsed fails
// every element on it, loudly, in every fetch, while the other channels'
// records are still delivered; once it is readable again so are they.
func TestFailedSourceFailsItsElements(t *testing.T) {
	m := vmMachine(2)
	fs := procfs.New()
	a := buildTestAgent(t, m, BuildOptions{FS: fs})
	all := len(a.Elements())
	if _, err := a.Fetch(nil, nil, true); err != nil {
		t.Fatal(err)
	}
	good, err := fs.ReadFile("/proc/net/dev")
	if err != nil {
		t.Fatal(err)
	}
	fs.Mount("/proc/net/dev", func() []byte { return []byte("h1\nh2\neth0: not numbers\n") })
	for i := 0; i < 2; i++ {
		recs, err := a.Fetch(nil, nil, true)
		if err == nil || !strings.Contains(err.Error(), "netdev") {
			t.Fatalf("fetch over a corrupt /proc/net/dev: %v", err)
		}
		if len(recs) != all-3 { // the pNIC and both TUNs live in that file
			t.Fatalf("got %d of %d records; want all but the 3 on the corrupt file", len(recs), all)
		}
		for _, r := range recs {
			if k := r.Kind(); k == core.KindPNIC || k == core.KindTUN {
				t.Fatalf("record %s served from a file that failed to parse", r.Element)
			}
		}
	}
	fs.Mount("/proc/net/dev", func() []byte { return good })
	if recs, err := a.Fetch(nil, nil, true); err != nil || len(recs) != all {
		t.Fatalf("after repair: %d records, %v", len(recs), err)
	}
}

// TestNetDevLatencyPaidOncePerRead: the emulated device-file cost is per
// read, not per element.
func TestNetDevLatencyPaidOncePerRead(t *testing.T) {
	m := vmMachine(4)
	const read = 50 * time.Millisecond
	a := buildTestAgent(t, m, BuildOptions{Latencies: Latencies{NetDev: Latency(read)}})
	ids := []core.ElementID{"m0/pnic", "m0/vm0/tun", "m0/vm1/tun", "m0/vm2/tun", "m0/vm3/tun"}
	start := time.Now()
	if recs, err := a.Fetch(ids, nil, false); err != nil || len(recs) != len(ids) {
		t.Fatalf("fetch: %d records, %v", len(recs), err)
	}
	// Paid per device it would be at least 5 reads; one read leaves room
	// for a loaded machine to oversleep threefold.
	if d := time.Since(start); d < read || d > 4*read {
		t.Fatalf("five devices of one file took %v; want one %v read", d, read)
	}
}

func TestStatLineRoundTrip(t *testing.T) {
	rec := core.Record{Timestamp: -5, Element: "m0/vm0/app", Attrs: []core.Attr{
		{ID: core.AttrKind, Value: 9}, {ID: core.AttrRxBytes, Value: 1 << 60},
		{ID: core.AttrCapacityBps, Value: 0.1}, core.NamedAttr("statline_test_ext", -math.MaxFloat64),
		{ID: core.AttrQueueLen, Value: math.Inf(1)},
	}}
	line, err := appendStatLine(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	got, err := parseStatLine(nil, line, rec.Element)
	if err != nil || !reflect.DeepEqual(got, rec) {
		t.Fatalf("round trip of %q:\n got %+v, %v\nwant %+v", line, got, err, rec)
	}
	if allocs := testing.AllocsPerRun(100, func() { parseStatLine(got.Attrs[:0], line, rec.Element) }); allocs != 0 {
		t.Errorf("parse into scratch allocates %v/op; want 0", allocs)
	}
	for _, bad := range []core.Record{
		{Element: ""}, {Element: "m0/a b"}, {Element: "m0/a=b"}, {Element: "m0/a\nb"},
		{Element: "e", Attrs: []core.Attr{core.NamedAttr("two words", 1)}},
		{Element: "e", Attrs: []core.Attr{core.NamedAttr("a=b", 1)}},
		{Element: "e", Attrs: []core.Attr{{ID: core.SketchAttrID(), Payload: []byte{1}}}},
	} {
		if line, err := appendStatLine(nil, bad); err == nil {
			t.Errorf("appendStatLine(%+v) = %q; want an error", bad, line)
		}
	}
	for _, bad := range []string{
		"", "5", "x m0/e rx_bytes=1", "5 m0/other rx_bytes=1", "5 m0/e rx_bytes", "5 m0/e =1",
		"5 m0/e rx_bytes=", "5 m0/e rx_bytes=1x", "5 m0/e  rx_bytes=1", "5 m0/e rx_bytes=1 tx",
	} {
		if rec, err := parseStatLine(nil, []byte(bad), "m0/e"); err == nil {
			t.Errorf("parseStatLine(%q) = %+v; want an error", bad, rec)
		}
	}
}

// FuzzStatLine: whatever appendStatLine writes parses back to the same
// record, and no line — truncated, garbage — makes the parser panic.
func FuzzStatLine(f *testing.F) {
	f.Add(int64(1), "m0/vm0/qemu", "rx_bytes", 1.5, "custom_ext", -2.0, "7 m0/vm0/qemu kind=6 rx_bytes=1e+06")
	f.Add(int64(-1), "e", "a b", 0.0, "", 1.0, "7 m0/vm0/qemu kind=")
	f.Add(int64(0), "", "x=y", math.Inf(-1), "kind", 1e300, "\x00 \n= =")
	f.Fuzz(func(t *testing.T, ts int64, elem, name1 string, v1 float64, name2 string, v2 float64, raw string) {
		parseStatLine(nil, []byte(raw), core.ElementID(elem))
		if v1 != v1 || v2 != v2 {
			return // NaN never equals itself
		}
		// The extension registry is process-wide and capped, so unknown
		// names fold onto a few: one no line can carry, eight that one can.
		attr := func(name string, v float64) core.Attr {
			if _, known := core.LookupAttr(name); known {
				return core.NamedAttr(name, v)
			}
			if name == "" || strings.ContainsAny(name, " =\r\n") {
				return core.NamedAttr("two words", v)
			}
			return core.NamedAttr(fmt.Sprintf("fuzz_ext_%d", len(name)%8), v)
		}
		rec := core.Record{Timestamp: ts, Element: core.ElementID(elem), Attrs: []core.Attr{attr(name1, v1), attr(name2, v2)}}
		line, err := appendStatLine(nil, rec)
		if err != nil {
			return
		}
		for cut := 0; cut < len(line); cut += 1 + len(line)/8 {
			parseStatLine(nil, line[:cut], rec.Element)
		}
		got, err := parseStatLine(nil, line, rec.Element)
		if err != nil {
			t.Fatalf("wrote %q from %+v, cannot read it back: %v", line, rec, err)
		}
		if got.Timestamp != rec.Timestamp || got.Element != rec.Element || len(got.Attrs) != len(rec.Attrs) {
			t.Fatalf("round trip of %q: got %+v, want %+v", line, got, rec)
		}
		for i := range rec.Attrs {
			if got.Attrs[i].ID != rec.Attrs[i].ID || got.Attrs[i].Value != rec.Attrs[i].Value {
				t.Fatalf("round trip of %q: attr %d is %+v, want %+v", line, i, got.Attrs[i], rec.Attrs[i])
			}
		}
	})
}

// qemuAdapter returns the QEMU log adapter Build wired for vm0, and the
// path of its log.
func qemuAdapter(t *testing.T, a *Agent) (*QEMULogAdapter, string) {
	t.Helper()
	a.mu.RLock()
	defer a.mu.RUnlock()
	ad, ok := a.adapters["m0/vm0/qemu"].(*QEMULogAdapter)
	if !ok {
		t.Fatal("no QEMU log adapter for vm0")
	}
	return ad, ad.Log.Path
}

// TestQEMULogTail covers what can happen to the file between two fetches:
// growth past the rotation size, truncation and replacement underneath
// the tailer, and a partial last line.
func TestQEMULogTail(t *testing.T) {
	m := testMachine(t)
	dir := t.TempDir()
	ts := int64(0)
	a := buildTestAgent(t, m, BuildOptions{QEMULogDir: dir, Clock: func() int64 { ts++; return ts }})
	ad, path := qemuAdapter(t, a)
	fetch := func(what string) {
		t.Helper()
		recs, err := a.Fetch([]core.ElementID{"m0/vm0/qemu"}, nil, false)
		if err != nil || len(recs) != 1 || recs[0].Timestamp != ts || recs[0].GetOr(core.AttrRxPackets, 0) == 0 {
			t.Fatalf("%s: fetch at ts %d returned %+v, %v", what, ts, recs, err)
		}
	}
	size := func() int64 {
		t.Helper()
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return st.Size()
	}

	fetch("first")
	lineLen := size()
	// Growth: every fetch appends one line and reads only that line.
	for i := 0; i < 10; i++ {
		fetch("append")
	}
	if got := size(); got < 10*lineLen || ad.off != got {
		t.Fatalf("after 11 fetches the log is %d bytes and the tailer at %d", got, ad.off)
	}
	// Rotation: cross the 64 KB boundary; the file restarts and the tailer
	// re-anchors at its top.
	rotated := false
	for i := 0; i < 2*qemuLogRotateAt/int(lineLen); i++ {
		before := size()
		fetch("rotate")
		if size() < before {
			rotated = true
			if before <= qemuLogRotateAt || ad.off != size() {
				t.Fatalf("rotated at %d bytes, tailer at %d of %d", before, ad.off, size())
			}
		}
	}
	if !rotated {
		t.Fatal("log never rotated")
	}
	// Truncated underneath both ends: offset > size, re-anchor at 0.
	if err := os.Truncate(path, 0); err != nil {
		t.Fatal(err)
	}
	fetch("truncated")
	if ad.off != size() {
		t.Fatalf("after truncation the tailer is at %d of %d", ad.off, size())
	}
	// A partial last line is not a record: the tailer returns the complete
	// line before it, and leaves the fragment for when its newline arrives.
	fetch("before fragment")
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString("999 m0/vm0/qemu rx_pack"); err != nil {
		t.Fatal(err)
	}
	if rec, err := ad.tail(); err == nil {
		t.Fatalf("tailer made %+v of a fragment", rec)
	}
	if _, err := f.WriteString("ets=5\n"); err != nil {
		t.Fatal(err)
	}
	if rec, err := ad.tail(); err != nil || rec.Timestamp != 999 || rec.GetOr(core.AttrRxPackets, 0) != 5 {
		t.Fatalf("completed line read as %+v, %v", rec, err)
	}
	// Replaced underneath with shorter content: re-anchor, and the line of
	// the next flush is the newest of what is there now.
	if err := os.WriteFile(path, []byte("1 m0/vm0/qemu kind=6\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fetch("replaced")
	data, err := os.ReadFile(path)
	if err != nil || !strings.HasPrefix(string(data), "1 m0/vm0/qemu kind=6\n") || int64(len(data)) != ad.off {
		t.Fatalf("replaced log holds %q (%v), tailer at %d", data, err, ad.off)
	}
}

// countingDialer serves handle over in-memory pipes, counting dials and
// keeping the server ends so the test can hang up on the adapter.
type countingDialer struct {
	handle func(net.Conn)
	fail   atomic.Bool
	dials  atomic.Int64
	mu     sync.Mutex
	conns  []net.Conn
}

func (d *countingDialer) Dial() (net.Conn, error) {
	d.dials.Add(1)
	if d.fail.Load() {
		return nil, errors.New("endpoint down")
	}
	client, server := net.Pipe()
	go d.handle(server)
	d.mu.Lock()
	d.conns = append(d.conns, server)
	d.mu.Unlock()
	return client, nil
}

// closeAll has the endpoint hang up on every connection.
func (d *countingDialer) closeAll() {
	d.mu.Lock()
	defer d.mu.Unlock()
	for _, c := range d.conns {
		c.Close()
	}
	d.conns = nil
}

// badElem snapshots a record no stat line can carry.
type badElem struct{ churnElem }

func (b badElem) Snapshot(ts int64) core.Record {
	return core.Record{Timestamp: ts, Element: b.id, Attrs: []core.Attr{core.NamedAttr("two words", 1)}}
}

// TestKeptChannelLifecycle: the stats socket and the vswitch control
// channel are dialled once and kept; a connection that died between
// fetches costs exactly one redial and no error; a dial failure is an
// error and the next fetch dials again; an ERR reply is an error that
// keeps the connection.
func TestKeptChannelLifecycle(t *testing.T) {
	m := testMachine(t)
	m.Stack.VSwitch.EnableFlowSketch(dataplane.SketchConfig{})
	mbox := &countingDialer{handle: (&StatsServer{E: appAsElement{m.VM("vm0").Apps[0]}}).Handle}
	ovs := &countingDialer{handle: (&OVSChannelServer{VS: m.Stack.VSwitch}).Handle}
	a := New("m0", nil)
	t.Cleanup(func() { a.Close() })
	a.Register(&MboxSocketAdapter{ID: "m0/vm0/app", Dial: mbox.Dial})
	a.Register(&OVSAdapter{ID: m.Stack.VSwitch.ID(), Dial: ovs.Dial, Mode: FlowStatsSketch})
	for _, c := range []struct {
		name string
		d    *countingDialer
	}{{"mbox", mbox}, {"ovs", ovs}} {
		fetch := func() error {
			recs, err := a.Fetch(nil, nil, true)
			if err == nil && len(recs) != 2 {
				t.Fatalf("%s: %d records without an error", c.name, len(recs))
			}
			return err
		}
		base := c.d.dials.Load()
		for i := 0; i < 3; i++ {
			if err := fetch(); err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
		}
		if got := c.d.dials.Load() - base; got > 1 {
			t.Fatalf("%s: %d dials for three fetches; want the connection kept", c.name, got)
		}
		base = c.d.dials.Load()
		c.d.closeAll()
		if err := fetch(); err != nil {
			t.Fatalf("%s: fetch after the endpoint hung up: %v", c.name, err)
		}
		if got := c.d.dials.Load() - base; got != 1 {
			t.Fatalf("%s: %d redials after the endpoint hung up; want 1", c.name, got)
		}
		c.d.closeAll()
		c.d.fail.Store(true)
		if err := fetch(); err == nil || !strings.Contains(err.Error(), "endpoint down") {
			t.Fatalf("%s: fetch with the endpoint down: %v", c.name, err)
		}
		c.d.fail.Store(false)
		base = c.d.dials.Load()
		if err := fetch(); err != nil || c.d.dials.Load()-base != 1 {
			t.Fatalf("%s: fetch after the endpoint came back: %v, %d dials", c.name, err, c.d.dials.Load()-base)
		}
	}

	// ERR replies: the legacy DUMP works on the same connection after a
	// DUMP-SKETCH the switch refuses, and a middlebox whose record cannot
	// be written says so on every request over one connection.
	plain := vmMachine(1)
	ovs2 := &countingDialer{handle: (&OVSChannelServer{VS: plain.Stack.VSwitch}).Handle}
	sw := &OVSAdapter{ID: plain.Stack.VSwitch.ID(), Dial: ovs2.Dial, Mode: FlowStatsSketch}
	defer sw.Close()
	if _, err := sw.Fetch(&Sources{TS: 1}); err == nil || !strings.Contains(err.Error(), "sketch flow statistics not enabled") {
		t.Fatalf("DUMP-SKETCH against a switch without a sketch: %v", err)
	}
	if rec, err := sw.FetchLegacy(&Sources{TS: 2}); err != nil || rec.Kind() != core.KindVSwitch {
		t.Fatalf("DUMP after a refused DUMP-SKETCH: %+v, %v", rec, err)
	}
	mbox2 := &countingDialer{handle: (&StatsServer{E: badElem{churnElem{"m0/bad"}}}).Handle}
	bad := &MboxSocketAdapter{ID: "m0/bad", Dial: mbox2.Dial}
	defer bad.Close()
	for i := 0; i < 2; i++ {
		_, err := bad.Fetch(&Sources{TS: 1})
		var reply errReply
		if !errors.As(err, &reply) || !strings.Contains(err.Error(), "two words") {
			t.Fatalf("unwritable record: %v; want the server's ERR text", err)
		}
	}
	if ovs2.dials.Load() != 1 || mbox2.dials.Load() != 1 {
		t.Fatalf("ERR replies cost %d and %d dials; want the connections kept", ovs2.dials.Load(), mbox2.dials.Load())
	}

	// A reply longer than the kept reader's buffer still arrives whole; one
	// past the bound is an error, not a truncated record.
	for _, c := range []struct {
		attrs int
		ok    bool
	}{{200, true}, {maxReplyLine / 16, false}} {
		wide := &countingDialer{handle: (&StatsServer{E: wideElem{churnElem{"m0/wide"}, c.attrs}}).Handle}
		ad := &MboxSocketAdapter{ID: "m0/wide", Dial: wide.Dial}
		rec, err := ad.Fetch(&Sources{TS: 1})
		ad.Close()
		if ok := err == nil && len(rec.Attrs) == c.attrs; ok != c.ok {
			t.Fatalf("reply of %d attrs: %d attrs, %v", c.attrs, len(rec.Attrs), err)
		}
	}
}

// wideElem snapshots n extension attrs: a stat line of at least 16n bytes.
type wideElem struct {
	churnElem
	n int
}

func (w wideElem) Snapshot(ts int64) core.Record {
	rec := core.Record{Timestamp: ts, Element: w.id}
	for i := 0; i < w.n; i++ {
		rec.Attrs = append(rec.Attrs, core.NamedAttr(fmt.Sprintf("wide_attr_%05d", i), float64(i)))
	}
	return rec
}

// TestDroppedAgentReleasesHandlers: an agent that is dropped without
// Close, as the benchmark drops its worlds, does not leave its stats
// servers' handler goroutines parked on their kept pipes.
func TestDroppedAgentReleasesHandlers(t *testing.T) {
	// The baseline is the count once it has stopped falling: earlier tests'
	// servers and handlers may still be on their way out.
	base, steady := runtime.NumGoroutine(), 0
	for i := 0; i < 100 && steady < 5; i++ {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
		if n := runtime.NumGoroutine(); n < base {
			base, steady = n, 0
		} else {
			steady++
		}
	}
	func() {
		a, err := Build(vmMachine(4), BuildOptions{QEMULogDir: t.TempDir(), UseMboxSockets: true})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := a.Fetch(nil, nil, true); err != nil {
			t.Fatal(err)
		}
		if n := runtime.NumGoroutine(); n < base+5 {
			t.Fatalf("%d goroutines with four stats sockets and the control channel open; baseline %d", n, base)
		}
	}()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > base && time.Now().Before(deadline); {
		runtime.GC() // finalizers run after a collection finds the agent unreachable
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after the agent was dropped; baseline %d", n, base)
	}
	// And Close releases them at once, for those who do call it.
	a := buildTestAgent(t, vmMachine(4), BuildOptions{UseMboxSockets: true})
	if _, err := a.Fetch(nil, nil, true); err != nil {
		t.Fatal(err)
	}
	a.Close()
	for i := 0; i < 100 && runtime.NumGoroutine() > base; i++ {
		time.Sleep(time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines after Close; baseline %d", n, base)
	}
	if recs, err := a.Fetch(nil, nil, true); err != nil || len(recs) != len(a.Elements()) {
		t.Fatalf("fetch after Close: %d records, %v", len(recs), err)
	}
}

// TestSpanBlockOneChildPerChannel: a whole-machine fetch reports one child
// span per collection channel — six for Build's adapters, none dropped —
// whose durations fit inside the root's.
func TestSpanBlockOneChildPerChannel(t *testing.T) {
	a := buildTestAgent(t, vmMachine(8), BuildOptions{UseMboxSockets: true, FlowStats: FlowStatsSketch})
	sb := &spanBuf{}
	for round := 0; round < 2; round++ {
		sb.begin()
		start := time.Now()
		recs, err := a.fetchAppend(nil, nil, nil, true, false, sb)
		sb.root("agent:dispatch", start.UnixNano(), time.Since(start).Nanoseconds())
		if err != nil || len(recs) != 77 {
			t.Fatalf("fetch: %d records, %v", len(recs), err)
		}
		if sb.dropped != 0 || len(sb.spans) != 7 {
			t.Fatalf("%d spans, %d dropped; want the root and six channels: %+v", len(sb.spans), sb.dropped, sb.spans)
		}
		root, names, sum := sb.spans[0], map[string]bool{}, int64(0)
		for i, sp := range sb.spans[1:] {
			names[sp.Name] = true
			sum += sp.DurNS
			if sp.ID != uint64(i)+2 || sp.Parent != 1 || sp.Status != "" || sp.DurNS <= 0 ||
				sp.StartNS < root.StartNS || sp.StartNS+sp.DurNS > root.StartNS+root.DurNS {
				t.Errorf("child %+v does not sit under root %+v", sp, root)
			}
		}
		for _, want := range []string{"procfs:netdev", "procfs:softnet", "ovs:DUMP-SKETCH", "log:qemu", "socket:mbox", "snapshot:encode"} {
			if !names[want] {
				t.Errorf("no %s span in %+v", want, sb.spans)
			}
		}
		if sum > root.DurNS {
			t.Errorf("children sum to %d ns, the root lasted %d", sum, root.DurNS)
		}
	}
	// A channel with a failed fetch says so; the others do not.
	_, path := qemuAdapter(t, a)
	a.Close()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path, 0o755); err != nil { // the log can no longer be opened
		t.Fatal(err)
	}
	sb.begin()
	if _, err := a.fetchAppend(nil, nil, nil, true, false, sb); err == nil {
		t.Fatal("fetch with vm0's log unopenable returned no error")
	}
	for _, sp := range sb.spans[1:] {
		want := ""
		if sp.Name == "log:qemu" {
			want = "error"
		}
		if sp.Status != want {
			t.Errorf("span %s has status %q, want %q", sp.Name, sp.Status, want)
		}
	}
}
