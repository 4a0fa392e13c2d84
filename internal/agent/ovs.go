package agent

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"

	"perfsight/internal/core"
	"perfsight/internal/dataplane"
)

// FlowStatsMode selects how a vswitch adapter reports per-flow traffic.
type FlowStatsMode int

const (
	// FlowStatsExact is the legacy path: one `rule_<flow>_packets`/
	// `_bytes` extension attribute per flow, enumerated over the control
	// channel. O(flows) attrs per sweep and O(flows) registry entries.
	FlowStatsExact FlowStatsMode = iota
	// FlowStatsSketch ships one constant-size `flow_sketch` payload attr
	// (count-min + top-k summary) regardless of flow count.
	FlowStatsSketch
)

func (m FlowStatsMode) String() string {
	if m == FlowStatsSketch {
		return "sketch"
	}
	return "exact"
}

// FlowStatsModeFromString parses the -flow-stats flag value.
func FlowStatsModeFromString(s string) (FlowStatsMode, error) {
	switch s {
	case "sketch":
		return FlowStatsSketch, nil
	case "exact":
		return FlowStatsExact, nil
	}
	return FlowStatsExact, fmt.Errorf("agent: unknown flow-stats mode %q (want sketch or exact)", s)
}

// OVSChannelServer exposes a virtual switch's statistics over a control
// channel in an ovs-ofctl dump-flows style, the way the real agent fetches
// per-rule counters via OpenFlow (§6). Two commands, each answered up to
// an `END` line:
//
//	DUMP         `switch ` + the switch-level stat line, then one
//	             `rule flow=... packets=... bytes=...` line per flow-table
//	             entry (legacy enumeration)
//	DUMP-SKETCH  the switch line, then `sketch <n>` followed by the n raw
//	             bytes of the constant-size flow summary and a newline
//
// A command that cannot be served is answered `ERR <text>`, then `END`.
type OVSChannelServer struct {
	VS *dataplane.VSwitch
}

// Handle serves one control connection.
func (s *OVSChannelServer) Handle(conn net.Conn) {
	var blob []byte
	serveLines(conn, func(out, cmd []byte) []byte {
		var err error
		switch string(cmd) {
		case "DUMP":
			if out, err = s.appendSwitchLine(out); err != nil {
				break
			}
			for _, rule := range s.VS.Rules() {
				out = append(append(out, "rule flow="...), rule.Flow...)
				out = strconv.AppendUint(append(out, " packets="...), rule.Packets.Load(), 10)
				out = strconv.AppendUint(append(out, " bytes="...), rule.Bytes.Load(), 10)
				out = append(out, '\n')
			}
		case "DUMP-SKETCH":
			fs := s.VS.FlowStats()
			if fs == nil {
				err = errors.New("sketch flow statistics not enabled")
				break
			}
			if out, err = s.appendSwitchLine(out); err != nil {
				break
			}
			blob = fs.AppendEncode(blob[:0])
			out = strconv.AppendInt(append(out, "sketch "...), int64(len(blob)), 10)
			out = append(append(append(out, '\n'), blob...), '\n')
		default:
			err = fmt.Errorf("unknown command %q", cmd)
		}
		if err != nil {
			out = append(append(append(out[:0], "ERR "...), err.Error()...), '\n')
		}
		return append(out, "END\n"...)
	})
}

func (s *OVSChannelServer) appendSwitchLine(out []byte) ([]byte, error) {
	out, err := appendStatLine(append(out, "switch "...), s.VS.Snapshot(0))
	return append(out, '\n'), err
}

// PipeDialer returns an in-memory dialer to the channel server.
func (s *OVSChannelServer) PipeDialer() func() (net.Conn, error) { return pipeDialer(s.Handle) }

// ruleAttrIDs caches the pair of extension AttrIDs for one flow so the
// legacy enumeration registers (and concatenates) each name once, not
// once per sweep.
type ruleAttrIDs struct {
	pkts, byts core.AttrID
}

// maxSketchBlob bounds the flow summary a control channel may announce.
const maxSketchBlob = 16 << 20

// OVSAdapter fetches virtual-switch statistics over the control channel,
// which it keeps open between fetches. Mode selects sketch summaries (one
// payload attr) or legacy per-rule enumeration; either way, a peer that
// cannot consume sketches can ask for the legacy form explicitly via
// FetchLegacy.
type OVSAdapter struct {
	ID      core.ElementID
	Dial    func() (net.Conn, error)
	Latency Latency
	Mode    FlowStatsMode

	ch      lineChannel
	ruleMu  sync.RWMutex
	ruleIDs map[string]ruleAttrIDs
}

// ElementID implements Adapter.
func (a *OVSAdapter) ElementID() core.ElementID { return a.ID }

// Kind implements Adapter.
func (a *OVSAdapter) Kind() core.ElementKind { return core.KindVSwitch }

// Fetch implements Adapter in the configured mode.
func (a *OVSAdapter) Fetch(src *Sources) (core.Record, error) {
	if a.Mode == FlowStatsSketch {
		return a.fetch(src, "DUMP-SKETCH\n")
	}
	return a.fetch(src, "DUMP\n")
}

// FetchLegacy implements LegacyFlowFetcher: the per-rule enumeration an
// old (sketch-unaware) controller negotiates down to.
func (a *OVSAdapter) FetchLegacy(src *Sources) (core.Record, error) {
	return a.fetch(src, "DUMP\n")
}

// Close implements io.Closer.
func (a *OVSAdapter) Close() error { return a.ch.Close() }

func (a *OVSAdapter) fetch(src *Sources, cmd string) (core.Record, error) {
	a.Latency.apply()
	src.req = append(src.req[:0], cmd...)
	var attrs []core.Attr
	err := a.ch.roundTrip(a.Dial, src.req, func(r *bufio.Reader) error {
		attrs = attrs[:0] // a retried exchange starts over
		var reply error
		for {
			line, err := readLine(r)
			if err != nil {
				return fmt.Errorf("read before END: %w", err)
			}
			line = bytes.TrimSpace(line)
			if string(line) == "END" {
				return reply
			}
			kind, rest, _ := bytes.Cut(line, []byte(" "))
			switch string(kind) {
			case "ERR":
				reply = errReply(rest)
			case "switch":
				sw, err := parseStatLine(attrs, rest, a.ID)
				if err != nil {
					return err
				}
				attrs = sw.Attrs
			case "rule":
				if flow, pkts, byts, ok := parseRuleLine(rest); ok {
					ids := a.ruleAttrIDsFor(flow)
					attrs = append(attrs,
						core.Attr{ID: ids.pkts, Value: float64(pkts)},
						core.Attr{ID: ids.byts, Value: float64(byts)},
					)
				}
			case "sketch":
				n, err := strconv.ParseUint(string(rest), 10, 64)
				if err != nil || n > maxSketchBlob {
					return fmt.Errorf("sketch line %q: bad length", line)
				}
				blob := make([]byte, n)
				if _, err := io.ReadFull(r, blob); err != nil {
					return fmt.Errorf("sketch blob: %w", err)
				}
				epoch, ok := dataplane.SketchEpoch(blob)
				if !ok {
					return errors.New("malformed sketch blob")
				}
				attrs = append(attrs, core.Attr{ID: core.SketchAttrID(), Value: float64(epoch), Payload: blob})
			}
		}
	})
	if err != nil {
		return core.Record{}, fmt.Errorf("agent: ovs %s: %w", a.ID, err)
	}
	return core.Record{Timestamp: src.TS, Element: a.ID, Attrs: attrs}, nil
}

// ruleAttrIDsFor returns the cached attr-ID pair for one flow's legacy
// counters, registering the names on first sight only. The map lookup
// with a string(flow) key compiles without allocating, so a steady-state
// sweep over a stable flow table costs zero name churn. Connections are
// served concurrently and share the adapter, hence the lock.
func (a *OVSAdapter) ruleAttrIDsFor(flow []byte) ruleAttrIDs {
	a.ruleMu.RLock()
	ids, ok := a.ruleIDs[string(flow)]
	a.ruleMu.RUnlock()
	if ok {
		return ids
	}
	a.ruleMu.Lock()
	defer a.ruleMu.Unlock()
	if ids, ok := a.ruleIDs[string(flow)]; ok {
		return ids
	}
	if a.ruleIDs == nil {
		a.ruleIDs = make(map[string]ruleAttrIDs)
	}
	f := string(flow)
	ids = ruleAttrIDs{
		pkts: core.NamedAttr("rule_"+f+"_packets", 0).ID,
		byts: core.NamedAttr("rule_"+f+"_bytes", 0).ID,
	}
	a.ruleIDs[f] = ids
	return ids
}

// parseRuleLine parses `flow=<id> packets=<n> bytes=<n>` by hand.
// fmt.Sscanf here cost two allocations plus reflection per flow per
// sweep — at enumeration scale, the dominant fetch cost (see
// BenchmarkOVSRuleParse).
func parseRuleLine(rest []byte) (flow []byte, pkts, byts uint64, ok bool) {
	flowField, rest, ok := bytes.Cut(rest, []byte(" "))
	if !ok {
		return nil, 0, 0, false
	}
	flow, ok = bytes.CutPrefix(flowField, []byte("flow="))
	if !ok || len(flow) == 0 {
		return nil, 0, 0, false
	}
	pktsField, bytsField, ok := bytes.Cut(rest, []byte(" "))
	if !ok {
		return nil, 0, 0, false
	}
	p, ok := bytes.CutPrefix(pktsField, []byte("packets="))
	if !ok {
		return nil, 0, 0, false
	}
	b, ok := bytes.CutPrefix(bytsField, []byte("bytes="))
	if !ok {
		return nil, 0, 0, false
	}
	// string(p) does not escape into strconv: nothing reaches the heap.
	pkts, perr := strconv.ParseUint(string(p), 10, 64)
	byts, berr := strconv.ParseUint(string(b), 10, 64)
	if perr != nil || berr != nil {
		return nil, 0, 0, false
	}
	return flow, pkts, byts, true
}
