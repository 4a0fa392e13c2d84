// Package agent implements the per-physical-server PerfSight agent (§4.2):
// it interrogates the machine's dataplane elements through channels
// tailored to each element type — device files and /proc for kernel
// elements, an OpenFlow-style control channel for the virtual switch, log
// files for QEMU, sockets for middlebox software — and serves the unified
// record format to the controller over TCP.
package agent

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"perfsight/internal/core"
	"perfsight/internal/procfs"
)

// Adapter fetches one element's statistics through its native channel.
// src is the fetch the record is for: its timestamp, and the shared files
// it has already read. An adapter that keeps a file or connection between
// fetches is an io.Closer; Agent.Close and Unregister close it.
type Adapter interface {
	ElementID() core.ElementID
	Kind() core.ElementKind
	Fetch(src *Sources) (core.Record, error)
}

// Latency emulates a collection channel's round-trip cost. Zero (the
// default) means full speed; the Fig 9 experiment sets the calibrated
// per-channel costs of the paper's testbed. Sub-millisecond delays spin
// instead of sleeping — time.Sleep's scheduler granularity would otherwise
// distort the Fig 9 shape.
type Latency time.Duration

func (l Latency) apply() {
	if l <= 0 {
		return
	}
	d := time.Duration(l)
	if d >= 2*time.Millisecond {
		time.Sleep(d)
		return
	}
	start := time.Now()
	for time.Since(start) < d {
	}
}

// LatencyVar is a runtime-settable latency shared by reference across
// adapters: the chaos layer's handle for degrading a channel mid-run (a
// disk gone slow under the QEMU log tail) without rebuilding the agent.
// A nil *LatencyVar applies nothing.
type LatencyVar struct{ ns atomic.Int64 }

// Set updates the latency; safe concurrently with Fetch.
func (v *LatencyVar) Set(d time.Duration) { v.ns.Store(int64(d)) }

// Get returns the current latency.
func (v *LatencyVar) Get() Latency {
	if v == nil {
		return 0
	}
	return Latency(v.ns.Load())
}

func (v *LatencyVar) apply() { v.Get().apply() }

// DirectAdapter reads an element through the generic element-agent API —
// used for elements instrumented with PerfSight's own counters (guest
// stack elements, and middleboxes when not served over a socket).
type DirectAdapter struct {
	E       core.Element
	Latency Latency
}

// ElementID implements Adapter.
func (a *DirectAdapter) ElementID() core.ElementID { return a.E.ID() }

// Kind implements Adapter.
func (a *DirectAdapter) Kind() core.ElementKind { return a.E.Kind() }

// Fetch implements Adapter.
func (a *DirectAdapter) Fetch(src *Sources) (core.Record, error) {
	a.Latency.apply()
	return a.E.Snapshot(src.TS), nil
}

// NetDevAdapter reads a net_device-backed element (pNIC, TUN, vNIC) from
// its line of a device file in the virtual /proc tree, the way ifconfig
// does (§6). Adapters on the same file share one read and parse per fetch.
type NetDevAdapter struct {
	ID      core.ElementID
	DevKind core.ElementKind
	FS      *procfs.FS
	Path    string
	Dev     string // device name within the file
	CapBps  float64
	Latency Latency
}

// ElementID implements Adapter.
func (a *NetDevAdapter) ElementID() core.ElementID { return a.ID }

// Kind implements Adapter.
func (a *NetDevAdapter) Kind() core.ElementKind { return a.DevKind }

// Fetch implements Adapter.
func (a *NetDevAdapter) Fetch(src *Sources) (core.Record, error) {
	devs, err := src.netDev(a.FS, a.Path, a.Latency)
	if err != nil {
		return core.Record{}, fmt.Errorf("agent: netdev %s: %w", a.ID, err)
	}
	for i := range devs {
		d := &devs[i]
		if d.Name != a.Dev {
			continue
		}
		attrs := append(make([]core.Attr, 0, 9),
			core.Attr{ID: core.AttrKind, Value: float64(a.DevKind)},
			core.Attr{ID: core.AttrRxPackets, Value: float64(d.RxPackets)},
			core.Attr{ID: core.AttrRxBytes, Value: float64(d.RxBytes)},
			core.Attr{ID: core.AttrTxPackets, Value: float64(d.TxPackets)},
			core.Attr{ID: core.AttrTxBytes, Value: float64(d.TxBytes)},
			core.Attr{ID: core.AttrDropPackets, Value: float64(d.RxDropped + d.TxDropped)},
			core.Attr{ID: core.AttrQueueLen, Value: float64(d.QueueLen)},
			core.Attr{ID: core.AttrQueueCap, Value: float64(d.QueueCap)},
		)
		if a.CapBps > 0 {
			attrs = append(attrs, core.Attr{ID: core.AttrCapacityBps, Value: a.CapBps})
		}
		return core.Record{Timestamp: src.TS, Element: a.ID, Attrs: attrs}, nil
	}
	return core.Record{}, fmt.Errorf("agent: netdev %s: device %q not in %s", a.ID, a.Dev, a.Path)
}

// SoftnetAdapter reads one per-CPU backlog queue's row of the softnet
// statistics file (§6: "accessible from the /proc file system"), sharing
// the file's one read and parse per fetch with the other rows' adapters.
type SoftnetAdapter struct {
	ID   core.ElementID
	FS   *procfs.FS
	Path string
	Row  int
	Cap  int
	// QueueKind is KindPCPUBacklog on the host, KindVCPUBacklog in guests.
	QueueKind core.ElementKind
	Latency   Latency
}

// ElementID implements Adapter.
func (a *SoftnetAdapter) ElementID() core.ElementID { return a.ID }

// Kind implements Adapter.
func (a *SoftnetAdapter) Kind() core.ElementKind { return a.QueueKind }

// Fetch implements Adapter.
func (a *SoftnetAdapter) Fetch(src *Sources) (core.Record, error) {
	rows, err := src.softnetRows(a.FS, a.Path, a.Latency)
	if err != nil {
		return core.Record{}, fmt.Errorf("agent: softnet %s: %w", a.ID, err)
	}
	if a.Row < 0 || a.Row >= len(rows) {
		return core.Record{}, fmt.Errorf("agent: softnet %s: row %d of %d", a.ID, a.Row, len(rows))
	}
	r := rows[a.Row]
	return core.Record{
		Timestamp: src.TS,
		Element:   a.ID,
		Attrs: []core.Attr{
			{ID: core.AttrKind, Value: float64(a.QueueKind)},
			{ID: core.AttrRxPackets, Value: float64(r.Processed + r.Dropped)},
			{ID: core.AttrTxPackets, Value: float64(r.Processed)},
			{ID: core.AttrDropPackets, Value: float64(r.Dropped)},
			{ID: core.AttrQueueLen, Value: float64(r.Queued)},
			{ID: core.AttrQueueCap, Value: float64(a.Cap)},
		},
	}, nil
}

// qemuLogRotateAt is the size past which the counter log is truncated
// before the next line (QEMU's logrotate analogue).
const qemuLogRotateAt = 64 << 10

// QEMULog is the hypervisor's end of a counter log: the instrumented QEMU
// appends its counters as one stat line per flush to a file it keeps open
// (§6: "We write these counters into logs"). Not safe for concurrent use;
// QEMULogAdapter serializes it with its own tail.
type QEMULog struct {
	E    core.Element
	Path string

	f    *os.File
	size int64
	line []byte
}

// Flush appends the element's counters at ts to the log.
func (q *QEMULog) Flush(ts int64) error {
	line, err := appendStatLine(q.line[:0], q.E.Snapshot(ts))
	q.line = append(line, '\n')
	if err != nil {
		return err
	}
	if q.f == nil {
		f, err := os.OpenFile(q.Path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return err
		}
		q.f, q.size = f, st.Size()
	}
	if q.size > qemuLogRotateAt {
		if err := q.f.Truncate(0); err != nil {
			return fmt.Errorf("rotate: %w", err)
		}
		q.size = 0
	}
	n, err := q.f.Write(q.line)
	q.size += int64(n)
	if err != nil {
		closeFile(&q.f) // reopen, and re-learn the size, on the next flush
		return fmt.Errorf("append: %w", err)
	}
	return nil
}

// closeFile closes *f if it is open; the next use reopens it.
func closeFile(f **os.File) {
	if *f != nil {
		(*f).Close()
		*f = nil
	}
}

// QEMULogAdapter collects a hypervisor-I/O element's counters from its log
// file: QEMU flushes a counter line, and the agent tails the file — reads
// what was appended since its last read and parses the newest complete
// line (§6: "PerfSight fetches the counters' values from the logs").
type QEMULogAdapter struct {
	Log     *QEMULog
	Latency Latency
	// Extra is an optional runtime-settable delay on top of Latency — the
	// log tail's exposure to disk health (chaos slow-disk injection).
	Extra *LatencyVar

	mu  sync.Mutex
	f   *os.File
	off int64  // everything before it has been read; a line starts here
	buf []byte // tail scratch
}

// ElementID implements Adapter.
func (a *QEMULogAdapter) ElementID() core.ElementID { return a.Log.E.ID() }

// Kind implements Adapter.
func (a *QEMULogAdapter) Kind() core.ElementKind { return a.Log.E.Kind() }

// Fetch implements Adapter: the instrumented QEMU flushes a log line, then
// the agent tails and parses it.
func (a *QEMULogAdapter) Fetch(src *Sources) (core.Record, error) {
	a.Latency.apply()
	a.Extra.apply()
	a.mu.Lock()
	defer a.mu.Unlock()
	if err := a.Log.Flush(src.TS); err != nil {
		return core.Record{}, fmt.Errorf("agent: qemulog %s: %w", a.ElementID(), err)
	}
	rec, err := a.tail()
	if err == nil && rec.Timestamp != src.TS {
		err = fmt.Errorf("newest line is from %d, not this fetch's %d", rec.Timestamp, src.TS)
	}
	if err != nil {
		closeFile(&a.f) // reopen from the top on the next fetch
		return core.Record{}, fmt.Errorf("agent: qemulog %s: %w", a.ElementID(), err)
	}
	return rec, nil
}

// tail reads the bytes appended since the last call and parses the last
// complete line among them; a trailing partial line waits for its newline.
func (a *QEMULogAdapter) tail() (core.Record, error) {
	if a.f == nil {
		f, err := os.Open(a.Log.Path)
		if err != nil {
			return core.Record{}, err
		}
		a.f, a.off = f, 0
	}
	size, err := a.f.Seek(0, io.SeekEnd) // the size, without Stat's FileInfo
	if err != nil {
		return core.Record{}, err
	}
	if size < a.off {
		a.off = 0 // rotated or truncated underneath: start over from the top
	}
	n := int(size - a.off)
	if cap(a.buf) < n {
		a.buf = make([]byte, n)
	}
	buf := a.buf[:n]
	if _, err := a.f.ReadAt(buf, a.off); err != nil {
		return core.Record{}, fmt.Errorf("read: %w", err)
	}
	end := bytes.LastIndexByte(buf, '\n')
	if end < 0 {
		return core.Record{}, fmt.Errorf("no complete line after offset %d", a.off)
	}
	start := bytes.LastIndexByte(buf[:end], '\n') + 1
	a.off += int64(end) + 1
	rec, err := parseStatLine(nil, buf[start:end], a.ElementID())
	if cap(a.buf) > 4096 {
		a.buf = nil // a first read of a long-lived log; steady state is one line
	}
	return rec, err
}

// Close closes both ends' files; a later fetch reopens them.
func (a *QEMULogAdapter) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	closeFile(&a.f)
	closeFile(&a.Log.f)
	return nil
}

// MboxSocketAdapter queries middlebox software over a socket (§6: "we use
// sockets between middlebox software and the agent"). StatsServer is the
// middlebox side; the adapter dials through the provided dialer (net.Pipe
// in simulations, TCP for live deployments) and keeps the connection.
type MboxSocketAdapter struct {
	ID      core.ElementID
	Dial    func() (net.Conn, error)
	Latency Latency

	ch lineChannel
}

// ElementID implements Adapter.
func (a *MboxSocketAdapter) ElementID() core.ElementID { return a.ID }

// Kind implements Adapter.
func (a *MboxSocketAdapter) Kind() core.ElementKind { return core.KindMiddlebox }

// Fetch implements Adapter.
func (a *MboxSocketAdapter) Fetch(src *Sources) (core.Record, error) {
	a.Latency.apply()
	src.req = append(strconv.AppendInt(append(src.req[:0], "STATS "...), src.TS, 10), '\n')
	var rec core.Record
	err := a.ch.roundTrip(a.Dial, src.req, func(r *bufio.Reader) error {
		line, err := readLine(r)
		if err != nil {
			return fmt.Errorf("recv: %w", err)
		}
		if msg, ok := bytes.CutPrefix(line, []byte("ERR ")); ok {
			return errReply(msg)
		}
		rec, err = parseStatLine(nil, line, a.ID)
		return err
	})
	if err != nil {
		return core.Record{}, fmt.Errorf("agent: mbox %s: %w", a.ID, err)
	}
	return rec, nil
}

// Close implements io.Closer.
func (a *MboxSocketAdapter) Close() error { return a.ch.Close() }

// StatsServer answers `STATS <ts>` requests for one middlebox element with
// a stat line, or `ERR <text>`.
type StatsServer struct {
	E core.Element
}

// Handle serves one connection until it closes.
func (s *StatsServer) Handle(conn net.Conn) {
	serveLines(conn, func(out, req []byte) []byte {
		tsField, ok := bytes.CutPrefix(req, []byte("STATS "))
		ts, err := strconv.ParseInt(string(tsField), 10, 64)
		if !ok || err != nil {
			return append(out, "ERR want STATS <ts>\n"...)
		}
		if out, err = appendStatLine(out, s.E.Snapshot(ts)); err != nil {
			out = append(append(out[:0], "ERR "...), err.Error()...)
		}
		return append(out, '\n')
	})
}

// PipeDialer returns a dialer connected to the stats server through an
// in-memory pipe, spawning a handler per dial.
func (s *StatsServer) PipeDialer() func() (net.Conn, error) { return pipeDialer(s.Handle) }
