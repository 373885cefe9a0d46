package transport

import (
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/types"
)

// metrics is the per-transport bundle of handles into a shared registry.
// All handles are nil (and their methods no-ops) when no registry is
// configured, so the uninstrumented fast path pays only nil checks.
type metrics struct {
	sent         *obs.Counter
	delivered    *obs.Counter
	dropped      *obs.Counter
	bytesSent    *obs.Counter
	streamErrors *obs.Counter
	delay        *obs.HistogramVec
	kind         string
	links        *linkCache
}

// newMetrics builds the transport metric families, labeled by transport
// kind ("channel" or "tcp"). The delay histogram is per-link: for the
// channel hub it records the injected artificial latency, for TCP the
// wall-clock duration of the send path (dial + encode).
func newMetrics(reg *obs.Registry, kind string) metrics {
	return metrics{
		sent: reg.CounterVec("transport_messages_sent_total",
			"Messages handed to the transport for delivery.", "transport").With(kind),
		delivered: reg.CounterVec("transport_messages_delivered_total",
			"Messages enqueued on a receiver.", "transport").With(kind),
		dropped: reg.CounterVec("transport_messages_dropped_total",
			"Messages dropped (crashed endpoint, loss injection, or queue overflow).", "transport").With(kind),
		bytesSent: reg.CounterVec("transport_bytes_sent_total",
			"Payload bytes handed to the transport (protocol wire size, framing excluded).", "transport").With(kind),
		streamErrors: reg.CounterVec("transport_stream_errors_total",
			"Inbound streams torn down on a malformed frame; frames still buffered on them are lost.", "transport").With(kind),
		delay: reg.HistogramVec("transport_delay_seconds",
			"Per-link delivery delay: injected latency (channel) or send-path duration (tcp).",
			obs.DefBuckets, "transport", "link"),
		kind:  kind,
		links: &linkCache{},
	}
}

// observeDelay records d seconds on the from->to link histogram. Handles
// are cached per directed link: the label lookup (a format plus a variadic
// registry access) runs once per link instead of once per message.
func (m *metrics) observeDelay(from, to types.ProcID, d float64) {
	if m.delay == nil {
		return
	}
	m.links.get(m.delay, m.kind, from, to).Observe(d)
}

// linkCache lazily memoizes per-link histogram handles. It sits behind a
// pointer so every copy of one metrics value shares the same cache.
type linkCache struct {
	mu sync.RWMutex
	m  map[linkKey]*obs.Histogram
}

type linkKey struct{ from, to types.ProcID }

func (c *linkCache) get(v *obs.HistogramVec, kind string, from, to types.ProcID) *obs.Histogram {
	k := linkKey{from, to}
	c.mu.RLock()
	h, ok := c.m[k]
	c.mu.RUnlock()
	if ok {
		return h
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if h, ok = c.m[k]; ok {
		return h
	}
	if c.m == nil {
		c.m = make(map[linkKey]*obs.Histogram)
	}
	h = v.With(kind, linkLabel(from, to))
	c.m[k] = h
	return h
}

// linkLabel renders a directed link as "from->to".
func linkLabel(from, to types.ProcID) string {
	return fmt.Sprintf("%d->%d", from, to)
}

// payloadBytes charges a message's protocol wire size in whole bytes
// (minimum 1 for any non-empty payload).
func payloadBytes(msg types.Message) uint64 {
	bits := types.SizeOf(msg.Payload)
	if bits <= 0 {
		return 0
	}
	return uint64((bits + 7) / 8)
}
