// Package procfs provides the in-memory virtual file tree through which
// kernel-resident elements publish their counters, mirroring how the real
// PerfSight agent reads them on Linux (§4.2/§6): net_device statistics via
// device files (ifconfig-style), and softnet_data per-CPU statistics via
// /proc/net/softnet_stat. The agent reads and *parses text*, exercising the
// same collection path as on the paper's testbed rather than calling into
// the elements directly.
package procfs

import (
	"bytes"
	"fmt"
	"sort"
	"strconv"
	"sync"
)

// FS is a tree of virtual files whose contents are generated on read.
type FS struct {
	mu    sync.RWMutex
	files map[string]func() []byte
}

// New returns an empty file system.
func New() *FS {
	return &FS{files: make(map[string]func() []byte)}
}

// Mount registers a generator for path, replacing any existing file.
func (f *FS) Mount(path string, gen func() []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.files[path] = gen
}

// Unmount removes a file.
func (f *FS) Unmount(path string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	delete(f.files, path)
}

// ReadFile renders the file at path.
func (f *FS) ReadFile(path string) ([]byte, error) {
	f.mu.RLock()
	gen := f.files[path]
	f.mu.RUnlock()
	if gen == nil {
		return nil, fmt.Errorf("procfs: %s: no such file", path)
	}
	return gen(), nil
}

// List returns all mounted paths, sorted.
func (f *FS) List() []string {
	f.mu.RLock()
	defer f.mu.RUnlock()
	out := make([]string, 0, len(f.files))
	for p := range f.files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// NetDevStats is the counter set a net_device exposes.
type NetDevStats struct {
	Name      string
	RxBytes   uint64
	RxPackets uint64
	RxDropped uint64
	TxBytes   uint64
	TxPackets uint64
	TxDropped uint64
	QueueLen  int
	QueueCap  int
}

const netDevHeader = "Inter-|   Receive                    |  Transmit                    | Queue\n" +
	" face |bytes    packets drop         |bytes    packets drop         | len cap\n"

// FormatNetDev renders /proc/net/dev-style lines for the given devices,
// with a header, plus queue occupancy columns (tx queue state is readable
// via sysfs on Linux; folded into one file here).
func FormatNetDev(devs []NetDevStats) []byte {
	b := make([]byte, 0, len(netDevHeader)+64*len(devs))
	b = append(b, netDevHeader...)
	for i := range devs {
		d := &devs[i]
		b = append(b, d.Name...)
		b = append(b, ':')
		for _, v := range [...]uint64{d.RxBytes, d.RxPackets, d.RxDropped, d.TxBytes, d.TxPackets, d.TxDropped} {
			b = strconv.AppendUint(append(b, ' '), v, 10)
		}
		b = strconv.AppendInt(append(b, ' '), int64(d.QueueLen), 10)
		b = strconv.AppendInt(append(b, ' '), int64(d.QueueCap), 10)
		b = append(b, '\n')
	}
	return b
}

// ParseNetDev parses FormatNetDev output.
func ParseNetDev(data []byte) ([]NetDevStats, error) {
	return AppendNetDev(nil, data)
}

// AppendNetDev is ParseNetDev appending to dst, for callers that parse the
// same file every sweep: a device whose name matches the one already in
// that slot of dst's backing array keeps that string, so re-parsing a
// stable device table allocates nothing. Each device line is
// `name: f1 … f8`, exactly eight space- or tab-separated decimal fields.
func AppendNetDev(dst []NetDevStats, data []byte) ([]NetDevStats, error) {
	keep := len(dst)
	for i := 0; len(data) > 0; i++ {
		var line []byte
		line, data, _ = bytes.Cut(data, []byte("\n"))
		if i < 2 || len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		name, rest, ok := bytes.Cut(line, []byte(":"))
		if !ok {
			return dst[:keep], fmt.Errorf("procfs: netdev line %d: missing device name: %q", i, line)
		}
		name = bytes.TrimSpace(name)
		var d NetDevStats
		if n := len(dst); n < cap(dst) && dst[:n+1][n].Name == string(name) {
			d.Name = dst[:n+1][n].Name
		} else {
			d.Name = string(name)
		}
		f := fields{rest: bytes.TrimSuffix(rest, []byte("\r"))}
		d.RxBytes, d.RxPackets, d.RxDropped = f.uint(10), f.uint(10), f.uint(10)
		d.TxBytes, d.TxPackets, d.TxDropped = f.uint(10), f.uint(10), f.uint(10)
		d.QueueLen, d.QueueCap = f.int(), f.int()
		if !f.done() {
			return dst[:keep], fmt.Errorf("procfs: netdev line %d: want 8 decimal fields: %q", i, line)
		}
		dst = append(dst, d)
	}
	return dst, nil
}

// SoftnetStats is one per-CPU backlog queue's counter set.
type SoftnetStats struct {
	Processed uint64 // packets dequeued by the NAPI routine
	Dropped   uint64 // enqueue failures (backlog full)
	Queued    uint64 // current occupancy
}

// FormatSoftnet renders /proc/net/softnet_stat-style hex columns, one line
// per CPU.
func FormatSoftnet(rows []SoftnetStats) []byte {
	b := make([]byte, 0, 27*len(rows))
	for _, r := range rows {
		b = append(appendHex8(b, r.Processed), ' ')
		b = append(appendHex8(b, r.Dropped), ' ')
		b = append(appendHex8(b, r.Queued), '\n')
	}
	return b
}

// appendHex8 appends v as the kernel's %08x.
func appendHex8(b []byte, v uint64) []byte {
	for pad := uint64(1) << 28; pad > v && pad > 1; pad >>= 4 {
		b = append(b, '0')
	}
	return strconv.AppendUint(b, v, 16)
}

// ParseSoftnet parses FormatSoftnet output.
func ParseSoftnet(data []byte) ([]SoftnetStats, error) {
	return AppendSoftnet(nil, data)
}

// AppendSoftnet is ParseSoftnet appending to dst. Each non-blank line is
// exactly three space- or tab-separated hex fields.
func AppendSoftnet(dst []SoftnetStats, data []byte) ([]SoftnetStats, error) {
	keep := len(dst)
	for i := 0; len(data) > 0; i++ {
		var line []byte
		line, data, _ = bytes.Cut(data, []byte("\n"))
		if len(bytes.TrimSpace(line)) == 0 {
			continue
		}
		f := fields{rest: bytes.TrimSuffix(line, []byte("\r"))}
		r := SoftnetStats{Processed: f.uint(16), Dropped: f.uint(16), Queued: f.uint(16)}
		if !f.done() {
			return dst[:keep], fmt.Errorf("procfs: softnet line %d: want 3 hex fields: %q", i, line)
		}
		dst = append(dst, r)
	}
	return dst, nil
}

// fields scans one line's space- or tab-separated numeric columns in
// place (string(col) does not escape into strconv, so nothing is copied to
// the heap). The first malformed or missing column latches bad; done
// reports whether every column parsed and none is left over.
type fields struct {
	rest []byte
	bad  bool
}

// next returns the next column, empty at end of line.
func (f *fields) next() []byte {
	i := 0
	for i < len(f.rest) && (f.rest[i] == ' ' || f.rest[i] == '\t') {
		i++
	}
	j := i
	for j < len(f.rest) && f.rest[j] != ' ' && f.rest[j] != '\t' {
		j++
	}
	col := f.rest[i:j]
	f.rest = f.rest[j:]
	return col
}

func (f *fields) uint(base int) uint64 {
	v, err := strconv.ParseUint(string(f.next()), base, 64)
	f.bad = f.bad || err != nil
	return v
}

func (f *fields) int() int {
	v, err := strconv.ParseInt(string(f.next()), 10, strconv.IntSize)
	f.bad = f.bad || err != nil
	return int(v)
}

func (f *fields) done() bool { return !f.bad && len(f.next()) == 0 }
