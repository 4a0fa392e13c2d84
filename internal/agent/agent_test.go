package agent

import (
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"perfsight/internal/core"
	"perfsight/internal/dataplane"
	"perfsight/internal/machine"
	"perfsight/internal/middlebox"
	"perfsight/internal/procfs"
	"perfsight/internal/wire"
)

// testMachine builds a machine with one sink VM and some traffic counters.
func testMachine(t *testing.T) *machine.Machine {
	t.Helper()
	m := machine.New(machine.DefaultConfig("m0"))
	sink := middlebox.NewSink("m0/vm0/app", 1e9)
	m.AddVM("vm0", 1.0, 1e9, sink)
	m.Stack.VSwitch.InstallToVM("f1", "vm0")
	// Push some traffic through so counters are non-zero.
	m.OfferWire([]dataplane.Batch{{Flow: "f1", Packets: 100, Bytes: 100 * 1448}}, time.Millisecond)
	for i := 0; i < 50; i++ {
		m.Tick(time.Duration(i+1)*time.Millisecond, time.Millisecond)
	}
	return m
}

func buildTestAgent(t *testing.T, m *machine.Machine, opts BuildOptions) *Agent {
	t.Helper()
	if opts.QEMULogDir == "" {
		opts.QEMULogDir = t.TempDir()
	}
	a, err := Build(m, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { a.Close() })
	return a
}

func TestBuildRegistersAllChannels(t *testing.T) {
	m := testMachine(t)
	a := buildTestAgent(t, m, BuildOptions{})
	ids := a.Elements()
	want := []core.ElementID{
		"m0/pnic", "m0/pnic_driver", "m0/napi", "m0/vswitch", "m0/cpu0/backlog",
		"m0/vm0/tun", "m0/vm0/qemu", "m0/vm0/guest/vnic", "m0/vm0/guest/backlog",
		"m0/vm0/guest/socket", "m0/vm0/app", "m0/host",
	}
	have := map[core.ElementID]bool{}
	for _, id := range ids {
		have[id] = true
	}
	for _, w := range want {
		if !have[w] {
			t.Errorf("element %s not registered (have %v)", w, ids)
		}
	}
}

func TestNetDevAdapterThroughFile(t *testing.T) {
	m := testMachine(t)
	a := buildTestAgent(t, m, BuildOptions{})
	recs, err := a.Fetch([]core.ElementID{"m0/pnic"}, nil, false)
	if err != nil || len(recs) != 1 {
		t.Fatalf("fetch pnic: %v, %v", recs, err)
	}
	rec := recs[0]
	if rec.Kind() != core.KindPNIC {
		t.Fatalf("kind %v", rec.Kind())
	}
	if rec.GetOr(core.AttrRxPackets, 0) == 0 {
		t.Fatal("pNIC rx counter zero after traffic")
	}
	// The record must agree with the element's own counters.
	direct := m.Stack.PNic.Snapshot(0)
	if rec.GetOr(core.AttrRxBytes, -1) != direct.GetOr(core.AttrRxBytes, -2) {
		t.Fatal("file path and direct path disagree")
	}
}

func TestTUNAdapterSharesHostDevFile(t *testing.T) {
	m := testMachine(t)
	fs := procfs.New()
	a := buildTestAgent(t, m, BuildOptions{FS: fs})
	if _, err := fs.ReadFile("/proc/net/dev"); err != nil {
		t.Fatal("host netdev file not mounted")
	}
	recs, err := a.Fetch([]core.ElementID{"m0/vm0/tun"}, nil, false)
	if err != nil || len(recs) != 1 {
		t.Fatalf("fetch tun: %v", err)
	}
	if recs[0].GetOr(core.AttrQueueCap, 0) == 0 {
		t.Fatal("tun queue capacity missing")
	}
}

func TestSoftnetAdapterRows(t *testing.T) {
	m := testMachine(t)
	a := buildTestAgent(t, m, BuildOptions{})
	recs, err := a.Fetch([]core.ElementID{"m0/cpu0/backlog", "m0/cpu7/backlog"}, nil, false)
	if err != nil || len(recs) != 2 {
		t.Fatalf("fetch backlogs: %v, %v", recs, err)
	}
	for _, r := range recs {
		if r.Kind() != core.KindPCPUBacklog {
			t.Fatalf("kind %v", r.Kind())
		}
		if _, ok := r.Get(core.AttrDropPackets); !ok {
			t.Fatal("backlog drop counter missing")
		}
	}
}

func TestQEMULogAdapterWritesAndParses(t *testing.T) {
	m := testMachine(t)
	dir := t.TempDir()
	a := buildTestAgent(t, m, BuildOptions{QEMULogDir: dir})
	recs, err := a.Fetch([]core.ElementID{"m0/vm0/qemu"}, nil, false)
	if err != nil || len(recs) != 1 {
		t.Fatalf("fetch qemu: %v", err)
	}
	if recs[0].GetOr(core.AttrRxPackets, 0) == 0 {
		t.Fatal("qemu counters zero after traffic")
	}
	data, err := os.ReadFile(filepath.Join(dir, "qemu-vm0.log"))
	if err != nil {
		t.Fatalf("log file missing: %v", err)
	}
	if !strings.Contains(string(data), "m0/vm0/qemu") {
		t.Fatal("log line lacks element ID")
	}
}

func TestQEMULogRotation(t *testing.T) {
	m := testMachine(t)
	dir := t.TempDir()
	a := buildTestAgent(t, m, BuildOptions{QEMULogDir: dir})
	path := filepath.Join(dir, "qemu-vm0.log")
	for i := 0; i < 500; i++ {
		if _, err := a.Fetch([]core.ElementID{"m0/vm0/qemu"}, nil, false); err != nil {
			t.Fatal(err)
		}
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() > 128<<10 {
		t.Fatalf("log grew unbounded: %d bytes", st.Size())
	}
}

func TestOVSAdapterRules(t *testing.T) {
	m := testMachine(t)
	a := buildTestAgent(t, m, BuildOptions{})
	recs, err := a.Fetch([]core.ElementID{"m0/vswitch"}, nil, false)
	if err != nil || len(recs) != 1 {
		t.Fatalf("fetch vswitch: %v", err)
	}
	if _, ok := recs[0].Get(core.AttrIDFor("rule_f1_packets")); !ok {
		t.Fatalf("per-rule counter missing: %v", recs[0].Attrs)
	}
	if recs[0].GetOr(core.AttrIDFor("rule_f1_packets"), 0) == 0 {
		t.Fatal("rule counter zero after traffic")
	}
}

func TestMboxSocketAdapter(t *testing.T) {
	m := testMachine(t)
	a := buildTestAgent(t, m, BuildOptions{UseMboxSockets: true})
	recs, err := a.Fetch([]core.ElementID{"m0/vm0/app"}, nil, false)
	if err != nil || len(recs) != 1 {
		t.Fatalf("fetch app: %v", err)
	}
	if recs[0].GetOr(core.AttrType, 0) != 1 {
		t.Fatal("middlebox type tag missing over socket channel")
	}
	if _, ok := recs[0].Get(core.AttrInTimeNS); !ok {
		t.Fatal("I/O time counters missing over socket channel")
	}
}

func TestFetchAttrsFilterAndClock(t *testing.T) {
	m := testMachine(t)
	clock := func() int64 { return 777 }
	a := buildTestAgent(t, m, BuildOptions{Clock: clock})
	recs, err := a.Fetch([]core.ElementID{"m0/pnic"}, []string{core.AttrName(core.AttrRxBytes)}, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs[0].Attrs) != 1 || recs[0].Attrs[0].ID != core.AttrRxBytes {
		t.Fatalf("filter leaked attrs: %v", recs[0].Attrs)
	}
	if recs[0].Timestamp != 777 {
		t.Fatalf("timestamp %d; want injected clock", recs[0].Timestamp)
	}
}

func TestFetchUnknownElementPartialResult(t *testing.T) {
	m := testMachine(t)
	a := buildTestAgent(t, m, BuildOptions{})
	recs, err := a.Fetch([]core.ElementID{"m0/pnic", "m0/ghost"}, nil, false)
	if err == nil {
		t.Fatal("unknown element did not error")
	}
	if len(recs) != 1 {
		t.Fatalf("partial results: %d", len(recs))
	}
}

func TestFetchAll(t *testing.T) {
	m := testMachine(t)
	a := buildTestAgent(t, m, BuildOptions{})
	recs, err := a.Fetch(nil, nil, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(a.Elements()) {
		t.Fatalf("all fetch returned %d of %d", len(recs), len(a.Elements()))
	}
	queries, busy := a.Stats()
	if queries == 0 || busy <= 0 {
		t.Fatal("agent self-stats not tracked")
	}
}

func TestAgentServeTCP(t *testing.T) {
	m := testMachine(t)
	a := buildTestAgent(t, m, BuildOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go a.Serve(ln)

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Ping.
	if err := wire.Write(conn, &wire.Message{Type: wire.TypePing, ID: 1}); err != nil {
		t.Fatal(err)
	}
	resp, err := wire.Read(conn)
	if err != nil || resp.Type != wire.TypePong || resp.Machine != "m0" {
		t.Fatalf("ping: %+v, %v", resp, err)
	}

	// Inventory.
	wire.Write(conn, &wire.Message{Type: wire.TypeListElements, ID: 2})
	resp, err = wire.Read(conn)
	if err != nil || resp.Type != wire.TypeElementList || len(resp.Elements) == 0 {
		t.Fatalf("list: %+v, %v", resp, err)
	}

	// Query.
	wire.Write(conn, &wire.Message{Type: wire.TypeQuery, ID: 3,
		Query: &wire.Query{Elements: []core.ElementID{"m0/pnic"}}})
	resp, err = wire.Read(conn)
	if err != nil || resp.Type != wire.TypeResponse || len(resp.Records) != 1 {
		t.Fatalf("query: %+v, %v", resp, err)
	}
	if resp.ID != 3 {
		t.Fatalf("response id %d", resp.ID)
	}

	// Unknown type yields a typed error, connection survives.
	wire.Write(conn, &wire.Message{Type: "bogus", ID: 4})
	resp, err = wire.Read(conn)
	if err != nil || resp.Type != wire.TypeError {
		t.Fatalf("bogus type: %+v, %v", resp, err)
	}
	wire.Write(conn, &wire.Message{Type: wire.TypePing, ID: 5})
	if resp, err = wire.Read(conn); err != nil || resp.Type != wire.TypePong {
		t.Fatal("connection did not survive a bad message")
	}
}

func TestAgentMalformedFrameClosesConnOnly(t *testing.T) {
	m := testMachine(t)
	a := buildTestAgent(t, m, BuildOptions{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go a.Serve(ln)

	bad, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	bad.Write([]byte{0xff, 0xff, 0xff, 0xff}) // absurd frame length
	buf := make([]byte, 1)
	bad.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := bad.Read(buf); err == nil {
		t.Fatal("agent kept a poisoned connection open")
	}
	bad.Close()

	// A fresh connection still works.
	good, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	wire.Write(good, &wire.Message{Type: wire.TypePing, ID: 1})
	if resp, err := wire.Read(good); err != nil || resp.Type != wire.TypePong {
		t.Fatalf("agent died after malformed frame: %v", err)
	}
}

func TestUnregisterRemovesElement(t *testing.T) {
	m := testMachine(t)
	a := buildTestAgent(t, m, BuildOptions{})
	a.Unregister("m0/pnic")
	if _, err := a.Fetch([]core.ElementID{"m0/pnic"}, nil, false); err == nil {
		t.Fatal("unregistered element still served")
	}
}

func TestCalibratedLatenciesOrdering(t *testing.T) {
	lat := CalibratedLatencies()
	if lat.NetDev <= lat.Softnet || lat.NetDev <= lat.Mbox || lat.NetDev <= lat.OVS {
		t.Fatal("device files must be the slowest channel (Fig 9)")
	}
	for _, l := range []Latency{lat.Softnet, lat.QEMULog, lat.Mbox, lat.OVS, lat.Direct} {
		if time.Duration(l) >= 500*time.Microsecond {
			t.Fatalf("non-device channel %v >= 500us", time.Duration(l))
		}
	}
}

// TestCloseRemovesOnlyItsOwnLogDir: Build makes a temp QEMU log directory
// when given none and Close removes it; a directory the caller supplied is
// the caller's and survives, logs and all.
func TestCloseRemovesOnlyItsOwnLogDir(t *testing.T) {
	m := testMachine(t)
	fetchQEMU := func(a *Agent) {
		t.Helper()
		if _, err := a.Fetch([]core.ElementID{"m0/vm0/qemu"}, nil, false); err != nil {
			t.Fatal(err)
		}
	}

	a, err := Build(m, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	fetchQEMU(a)
	dir := a.tempLogDir
	if _, err := os.Stat(filepath.Join(dir, "qemu-vm0.log")); err != nil {
		t.Fatalf("no QEMU log in the directory Build made: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Errorf("Close left %s behind (stat err %v)", dir, err)
	}

	mine := t.TempDir()
	b, err := Build(m, BuildOptions{QEMULogDir: mine})
	if err != nil {
		t.Fatal(err)
	}
	fetchQEMU(b)
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(mine, "qemu-vm0.log")); err != nil {
		t.Errorf("Close touched the caller's QEMULogDir: %v", err)
	}
}
