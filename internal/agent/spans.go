package agent

import (
	"perfsight/internal/wire"
)

// Span support: when a controller negotiates the spans capability (v2
// sessions only), the agent decorates every query response and pushed
// stream_data frame with a compact span list decomposing its handling
// time per collection channel — one child span per channel the gather
// used, under one root span covering the whole dispatch. Span IDs are
// frame-local (root is always 1); the controller remaps them into its
// trace and skew-corrects the timestamps, which are on the agent's clock.

// maxAgentSpans caps the per-frame span list. Build's adapters name six
// channels between them however many elements they serve; the cap bounds
// what adapters that name none (and fall back to their element kind) can
// put on the wire.
const maxAgentSpans = 32

// ChannelNamer lets an adapter name its collection channel for span
// annotation — the per-channel cost structure of Fig 9 ("ovs:DUMP",
// "procfs:netdev", ...). legacy reports whether the fetch was demoted to
// the legacy per-rule enumeration for a sketch-blind peer. Adapters
// without the method fall back to their element kind.
type ChannelNamer interface {
	ChannelName(legacy bool) string
}

// channelName resolves an adapter's span name without allocating: known
// adapters return constants, the fallback is the kind's name.
func channelName(ad Adapter, legacy bool) string {
	if cn, ok := ad.(ChannelNamer); ok {
		return cn.ChannelName(legacy)
	}
	return ad.Kind().String()
}

// ChannelName implements ChannelNamer: the vswitch control channel,
// named by the command actually issued.
func (a *OVSAdapter) ChannelName(legacy bool) string {
	if !legacy && a.Mode == FlowStatsSketch {
		return "ovs:DUMP-SKETCH"
	}
	return "ovs:DUMP"
}

// ChannelName implements ChannelNamer.
func (a *NetDevAdapter) ChannelName(bool) string { return "procfs:netdev" }

// ChannelName implements ChannelNamer.
func (a *SoftnetAdapter) ChannelName(bool) string { return "procfs:softnet" }

// ChannelName implements ChannelNamer.
func (a *QEMULogAdapter) ChannelName(bool) string { return "log:qemu" }

// ChannelName implements ChannelNamer.
func (a *MboxSocketAdapter) ChannelName(bool) string { return "socket:mbox" }

// ChannelName implements ChannelNamer: in-process snapshot of an
// instrumented element.
func (a *DirectAdapter) ChannelName(bool) string { return "snapshot:encode" }

// spanBuf accumulates one frame's spans into a per-connection slice so
// steady-state span decoration reuses its backing array. Slot 0 is
// reserved for the root span (ID 1, Parent 0), written last by root()
// once the dispatch duration is known; children parent under it.
type spanBuf struct {
	spans   []wire.Span
	dropped int
}

// begin resets the buffer and reserves the root slot.
func (b *spanBuf) begin() {
	b.spans = append(b.spans[:0], wire.Span{ID: 1})
	b.dropped = 0
}

// observe folds one adapter fetch into its channel's span: the span
// starts at the channel's first fetch, lasts the sum of its fetches, and
// reports an error if any of them failed. A channel first seen over the
// cap is dropped (the controller tracks its own drop budget).
func (b *spanBuf) observe(channel string, startNS, durNS int64, failed bool) {
	i := 1
	for i < len(b.spans) && b.spans[i].Name != channel {
		i++
	}
	if i == len(b.spans) {
		if len(b.spans) >= maxAgentSpans {
			b.dropped++
			return
		}
		b.spans = append(b.spans, wire.Span{ID: uint64(i) + 1, Parent: 1, Name: channel, StartNS: startNS})
	}
	b.spans[i].DurNS += durNS
	if failed {
		b.spans[i].Status = "error"
	}
}

// root finalizes slot 0 with the whole dispatch's extent.
func (b *spanBuf) root(name string, startNS, durNS int64) {
	b.spans[0] = wire.Span{ID: 1, Name: name, StartNS: startNS, DurNS: durNS}
}
