package procfs

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// oracleParseNetDev is the fmt.Sscanf parser ParseNetDev replaced, kept as
// the reference the byte scanner is compared against.
func oracleParseNetDev(data []byte) ([]NetDevStats, error) {
	lines := strings.Split(string(data), "\n")
	var out []NetDevStats
	for i, line := range lines {
		if i < 2 || strings.TrimSpace(line) == "" {
			continue
		}
		name, rest, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("procfs: netdev line %d: missing device name: %q", i, line)
		}
		var d NetDevStats
		d.Name = strings.TrimSpace(name)
		n, err := fmt.Sscanf(strings.TrimSpace(rest), "%d %d %d %d %d %d %d %d",
			&d.RxBytes, &d.RxPackets, &d.RxDropped,
			&d.TxBytes, &d.TxPackets, &d.TxDropped, &d.QueueLen, &d.QueueCap)
		if err != nil || n != 8 {
			return nil, fmt.Errorf("procfs: netdev line %d: parse %q: %v", i, line, err)
		}
		out = append(out, d)
	}
	return out, nil
}

// oracleParseSoftnet is the fmt.Sscanf parser ParseSoftnet replaced.
func oracleParseSoftnet(data []byte) ([]SoftnetStats, error) {
	var out []SoftnetStats
	for i, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if strings.TrimSpace(line) == "" {
			continue
		}
		var r SoftnetStats
		n, err := fmt.Sscanf(line, "%x %x %x", &r.Processed, &r.Dropped, &r.Queued)
		if err != nil || n != 3 {
			return nil, fmt.Errorf("procfs: softnet line %d: parse %q: %v", i, line, err)
		}
		out = append(out, r)
	}
	return out, nil
}

// corruptNetDev and corruptSoftnet are the hand-written hostile files:
// both parsers must agree on which to accept and on every value.
var corruptNetDev = []string{
	"", "h1\nh2\n", "h1\nh2\neth0: 1 2 3 4 5 6 7 8\n", "h1\nh2\nbroken line\n",
	"h1\nh2\neth0: 1 2 3 4 5 6 7\n", "h1\nh2\neth0: 1 2 3 4 5 6 7 x\n",
	"h1\nh2\neth0: 1 2 3 4 5 6 -7 -8\n", "h1\nh2\neth0: -1 2 3 4 5 6 7 8\n",
	"h1\nh2\neth0: 18446744073709551615 2 3 4 5 6 7 8\n",
	"h1\nh2\neth0: 18446744073709551616 2 3 4 5 6 7 8\n",
	"h1\nh2\neth0: 1 2 3 4 5 6 9223372036854775808 8\n",
	"h1\nh2\neth0: 1 2 3 4 5 6 -9223372036854775808 8\n",
	"h1\nh2\n  tap-vm0 :\t1  2 3 4 5 6 7 8\r\n\n: 1 2 3 4 5 6 7 8",
	"eth0: 1 2 3 4 5 6 7 8\nh2\n",
}

var corruptSoftnet = []string{
	"", "zzzz\n", "00000001 00000002", "00000001 00000002 00000003\n",
	"DEADbeef 0 ffffffffffffffff\n", "1 2 10000000000000000\n", "1 2 -3\n",
	"\n\n 1\t2  3 \r\n\n", "0x1 2 3\n",
}

// TestParsersMatchSscanfOracle: on everything Format* emits and on the
// corrupt seeds, the byte scanners accept exactly what the Sscanf parsers
// accepted, with the same values.
func TestParsersMatchSscanfOracle(t *testing.T) {
	netdev := append([]string(nil), corruptNetDev...)
	netdev = append(netdev, string(FormatNetDev(nil)), string(FormatNetDev([]NetDevStats{
		{Name: "eth0", RxBytes: math.MaxUint64, RxPackets: 1, TxDropped: 9, QueueLen: math.MaxInt, QueueCap: math.MinInt},
		{Name: "tap-vm0", QueueLen: -1},
		{Name: ""},
	})))
	for _, in := range netdev {
		want, wantErr := oracleParseNetDev([]byte(in))
		got, gotErr := ParseNetDev([]byte(in))
		if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
			t.Errorf("netdev %q:\n got %+v, %v\nwant %+v, %v", in, got, gotErr, want, wantErr)
		}
	}
	softnet := append([]string(nil), corruptSoftnet...)
	softnet = append(softnet, string(FormatSoftnet(nil)), string(FormatSoftnet([]SoftnetStats{
		{Processed: math.MaxUint64, Dropped: 0, Queued: 0xabcdef}, {Processed: 1 << 32, Dropped: 15, Queued: 16},
	})))
	for _, in := range softnet {
		want, wantErr := oracleParseSoftnet([]byte(in))
		got, gotErr := ParseSoftnet([]byte(in))
		if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
			t.Errorf("softnet %q:\n got %+v, %v\nwant %+v, %v", in, got, gotErr, want, wantErr)
		}
	}
}

// TestFormatMatchesFmt pins the strconv renderers to the fmt verbs they
// replaced.
func TestFormatMatchesFmt(t *testing.T) {
	d := NetDevStats{Name: "eth0", RxBytes: math.MaxUint64, RxPackets: 2, RxDropped: 3, TxBytes: 4, TxPackets: 5, TxDropped: 6, QueueLen: -7, QueueCap: 8}
	want := fmt.Sprintf("%s%s: %d %d %d %d %d %d %d %d\n", netDevHeader, d.Name, d.RxBytes, d.RxPackets, d.RxDropped,
		d.TxBytes, d.TxPackets, d.TxDropped, d.QueueLen, d.QueueCap)
	if got := string(FormatNetDev([]NetDevStats{d})); got != want {
		t.Errorf("FormatNetDev:\n got %q\nwant %q", got, want)
	}
	for _, v := range []uint64{0, 1, 0xf, 0x10, 0xfffffff, 0x10000000, 0xffffffff, 0x100000000, math.MaxUint64} {
		r := SoftnetStats{Processed: v, Dropped: v / 3, Queued: v / 7}
		want := fmt.Sprintf("%08x %08x %08x\n", r.Processed, r.Dropped, r.Queued)
		if got := string(FormatSoftnet([]SoftnetStats{r})); got != want {
			t.Errorf("FormatSoftnet(%#x) = %q, want %q", v, got, want)
		}
	}
}

// TestAppendNetDevReusesScratch: re-parsing a stable device table into the
// previous parse's slice allocates nothing, and an error hands the scratch
// back untouched in length.
func TestAppendNetDevReusesScratch(t *testing.T) {
	data := FormatNetDev([]NetDevStats{{Name: "eth0", RxBytes: 1}, {Name: "tap-vm0", RxBytes: 2}})
	devs, err := AppendNetDev(nil, data)
	if err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if devs, err = AppendNetDev(devs[:0], data); err != nil || len(devs) != 2 || devs[1].Name != "tap-vm0" {
			t.Fatalf("reparse: %+v, %v", devs, err)
		}
	}); allocs != 0 {
		t.Errorf("reparse into scratch allocates %v/op; want 0", allocs)
	}
	if got, err := AppendNetDev(devs[:1], []byte("h1\nh2\nbroken\n")); err == nil || len(got) != 1 {
		t.Errorf("failed parse returned %d rows, %v; want the 1 it was given and an error", len(got), err)
	}
}

// FuzzParseNetDev must never panic on arbitrary file contents, and must
// round-trip anything it accepts.
func FuzzParseNetDev(f *testing.F) {
	f.Add(string(FormatNetDev([]NetDevStats{{Name: "eth0", RxBytes: 1}})))
	for _, seed := range corruptNetDev {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data string) {
		devs, err := ParseNetDev([]byte(data))
		if err != nil {
			return
		}
		// The scanner is the stricter of the two (one column separator set,
		// no trailing columns): what it accepts the Sscanf parser accepted,
		// with the same values.
		if want, err := oracleParseNetDev([]byte(data)); err != nil || !reflect.DeepEqual(devs, want) {
			t.Fatalf("accepted %q as %+v; the Sscanf parser gives %+v, %v", data, devs, want, err)
		}
		again, err := ParseNetDev(FormatNetDev(devs))
		if err != nil {
			t.Fatalf("accepted devices failed to re-parse: %v", err)
		}
		if len(again) != len(devs) {
			t.Fatalf("device count changed: %d -> %d", len(devs), len(again))
		}
	})
}

// FuzzParseSoftnet must never panic and must round-trip what it accepts.
func FuzzParseSoftnet(f *testing.F) {
	f.Add(string(FormatSoftnet([]SoftnetStats{{Processed: 10, Dropped: 2, Queued: 1}})))
	for _, seed := range corruptSoftnet {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data string) {
		rows, err := ParseSoftnet([]byte(data))
		if err != nil {
			return
		}
		if want, err := oracleParseSoftnet([]byte(data)); err != nil || !reflect.DeepEqual(rows, want) {
			t.Fatalf("accepted %q as %+v; the Sscanf parser gives %+v, %v", data, rows, want, err)
		}
		again, err := ParseSoftnet(FormatSoftnet(rows))
		if err != nil {
			t.Fatalf("accepted rows failed to re-parse: %v", err)
		}
		if len(again) != len(rows) {
			t.Fatalf("row count changed: %d -> %d", len(rows), len(again))
		}
	})
}
