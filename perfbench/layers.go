package main

import (
	"math"
	"time"

	"repro/internal/service"
)

var perLayerDefs = []def{
	{"http.handler_p50_ms", "ms"},
	{"http.handler_p99_ms", "ms"},
	{"http.client_overhead_p50_ms", "ms"},
	{"transport.send_p50_us", "us"},
	{"transport.send_p99_us", "us"},
	{"transport.msgs_per_decision", "count"},
	{"transport.bytes_per_decision", "bytes"},
	{"transport.dropped", "count"},
	{"runtime.tick_deficit_pct", "%"},
	{"runtime.steps_per_s", "1/s"},
	{"txn.ticks_to_decision_p50", "ticks"},
	{"txn.over_8k_pct", "%"},
	{"txn.instances_per_decision", "count"},
	{"txn.abandoned", "count"},
	{"service.admit_p50_ms", "ms"},
	{"service.admit_p99_ms", "ms"},
	{"service.batch_p50_ms", "ms"},
	{"service.batch_p99_ms", "ms"},
	{"service.dispatch_p50_ms", "ms"},
	{"service.dispatch_p99_ms", "ms"},
	{"service.decided_p50_ms", "ms"},
	{"service.decided_p99_ms", "ms"},
	{"service.notify_p50_ms", "ms"},
	{"service.notify_p99_ms", "ms"},
	{"service.batch_occupancy_mean", "count"},
	{"service.budget_unaccounted_pct", "%"},
	{"wal.fsync_p50_us", "us"},
	{"wal.fsync_p99_us", "us"},
	{"wal.decisions_per_fsync", "count"},
	{"wal.bytes_per_decision", "bytes"},
	{"wal.replay_s", "s"},
	{"shard.cross_p50_ms", "ms"},
	{"shard.cross_p99_ms", "ms"},
	{"shard.single_p50_ms", "ms"},
	{"shard.cross_fsyncs_per_cross", "count"},
	{"shard.in_doubt", "count"},
	{"proc.gc_pause_total_ms", "ms"},
	{"proc.heap_peak_mb", "MiB"},
	{"load.generator_late_p99_ms", "ms"},
	{"trace.latency_p50_ms", "ms"},
	{"trace.latency_mean_ms", "ms"},
	{"trace.latency_p90_ms", "ms"},
	{"trace.latency_p99_ms", "ms"},
	{"trace.goodput_tps", "1/s"},
	{"trace.cpu_us_per_decision", "us"},
}

// stageNames are the service pipeline stages in causal order; their
// p50s, plus the HTTP client's overhead, make up the latency budget.
var stageNames = []string{"admit", "batch", "dispatch", "decided", "notify"}

// perLayer derives the per-layer metrics of a traced run from the
// wrappers' samples, the registry delta over the window (d) and the
// service's own metrics. A layer the workload does not exercise reads
// NaN, which the report prints as n/a.
func perLayer(st *stack, all, measured []*request, w *window, e2e map[string]float64, d promSnap,
	late []time.Duration, replays []float64, gcPause time.Duration, heapPeak uint64) map[string]float64 {
	nan := math.NaN()
	secs := w.length.Seconds()
	n, _ := answeredIn(all, w.t0, w.t1)
	decided := float64(n)
	per := func(x float64) float64 {
		if decided == 0 {
			return nan
		}
		return x / decided
	}
	m := map[string]float64{
		"trace.latency_p50_ms":         e2e["latency_p50_ms"],
		"trace.latency_mean_ms":        e2e["latency_mean_ms"],
		"trace.latency_p90_ms":         e2e["latency_p90_ms"],
		"trace.latency_p99_ms":         e2e["latency_p99_ms"],
		"trace.goodput_tps":            e2e["goodput_tps"],
		"trace.cpu_us_per_decision":    e2e["cpu_us_per_decision"],
		"proc.gc_pause_total_ms":       float64(gcPause) / float64(time.Millisecond),
		"proc.heap_peak_mb":            float64(heapPeak) / (1 << 20),
		"wal.replay_s":                 median(replays),
		"transport.msgs_per_decision":  per(d.sum("transport_messages_sent_total", "")),
		"transport.bytes_per_decision": per(d.sum("transport_bytes_sent_total", "")),
		"transport.dropped":            d.sum("transport_messages_dropped_total", ""),
	}

	// HTTP: handler time of the requests due in the window, and each
	// one's client round trip minus its handler time.
	m["http.handler_p50_ms"], m["http.handler_p99_ms"], m["http.client_overhead_p50_ms"] = nan, nan, nan
	if st.handler != nil {
		var hs, over []float64
		for _, r := range measured {
			if h, ok := st.handler.handlerTime(r.seq); ok {
				hs = append(hs, float64(h)/float64(time.Millisecond))
				over = append(over, float64(r.latency()-h)/float64(time.Millisecond))
			}
		}
		m["http.handler_p50_ms"] = quantile(hs, 0.50)
		m["http.handler_p99_ms"] = quantile(hs, 0.99)
		m["http.client_overhead_p50_ms"] = quantile(over, 0.50)
	}

	m["transport.send_p50_us"], m["transport.send_p99_us"] = nan, nan
	if st.sends != nil {
		ss := st.sends.window(time.Microsecond)
		m["transport.send_p50_us"] = quantile(ss, 0.50)
		m["transport.send_p99_us"] = quantile(ss, 0.99)
	}

	// Runtime: every processor is scheduled one step per tick.
	steps := d.sum("runtime_node_steps_total", "")
	scheduled := float64(st.nodes) * secs / tick.Seconds()
	m["runtime.steps_per_s"] = steps / secs
	m["runtime.tick_deficit_pct"] = 100 * (1 - steps/scheduled)

	// Txn managers. Remark 1 bounds a failure-free decision at 8K ticks.
	rounds := d.buckets("txn_rounds_to_decision_ticks", "")
	m["txn.ticks_to_decision_p50"] = histQuantile(rounds, 0.50)
	m["txn.over_8k_pct"] = 100 * shareAbove(rounds, 8*kTicks)
	m["txn.instances_per_decision"] = per(d.sum("txn_instances_started_total", ""))
	m["txn.abandoned"] = d.sum("txn_instances_abandoned_total", "")

	// Service stages, from the service's own latency recorders.
	stages := serviceStages(st)
	budget := 0.0
	for _, name := range stageNames {
		s, ok := stages[name]
		p50, p99 := nan, nan
		if ok {
			p50, p99 = s.P50Ms, s.P99Ms
			budget += s.P50Ms
		}
		m["service."+name+"_p50_ms"] = p50
		m["service."+name+"_p99_ms"] = p99
	}
	if o := m["http.client_overhead_p50_ms"]; !math.IsNaN(o) {
		budget += o
	}
	m["service.budget_unaccounted_pct"] = 100 * (e2e["latency_p50_ms"] - budget) / e2e["latency_p50_ms"]
	if wakes := d.sum("service_batches_total", ""); wakes > 0 {
		m["service.batch_occupancy_mean"] = d.sum("service_submitted_total", "") / wakes
	} else {
		m["service.batch_occupancy_mean"] = nan
	}

	// WAL: the wrapped journal file system where there is one, else the
	// cross-shard log's own fsync histogram.
	fsyncs := d.sum("wal_fsyncs_total", "")
	m["wal.decisions_per_fsync"] = nan
	if fsyncs > 0 {
		m["wal.decisions_per_fsync"] = decided / fsyncs
	}
	m["wal.fsync_p50_us"], m["wal.fsync_p99_us"], m["wal.bytes_per_decision"] = nan, nan, nan
	if st.fs != nil {
		fs := st.fs.syncs.window(time.Microsecond)
		m["wal.fsync_p50_us"] = quantile(fs, 0.50)
		m["wal.fsync_p99_us"] = quantile(fs, 0.99)
		m["wal.bytes_per_decision"] = per(float64(st.fs.windowBytes))
	} else {
		fb := d.buckets("wal_fsync_seconds", "")
		m["wal.fsync_p50_us"] = 1e6 * histQuantile(fb, 0.50)
		m["wal.fsync_p99_us"] = 1e6 * histQuantile(fb, 0.99)
	}

	// Shards: client-side latency by path, cross-log fsyncs per cross
	// decision, and cross transactions still in doubt after the drain.
	m["shard.cross_p50_ms"], m["shard.cross_p99_ms"], m["shard.single_p50_ms"] = nan, nan, nan
	m["shard.cross_fsyncs_per_cross"], m["shard.in_doubt"] = nan, nan
	if st.coord != nil {
		var cross, single []float64
		crossDecided := 0.0
		for _, r := range measured {
			l := float64(r.latency()) / float64(time.Millisecond)
			if r.cross {
				cross = append(cross, l)
				if r.decided() {
					crossDecided++
				}
			} else {
				single = append(single, l)
			}
		}
		m["shard.cross_p50_ms"] = quantile(cross, 0.50)
		m["shard.cross_p99_ms"] = quantile(cross, 0.99)
		m["shard.single_p50_ms"] = quantile(single, 0.50)
		if crossDecided > 0 {
			m["shard.cross_fsyncs_per_cross"] = d.sum("wal_fsyncs_total", `log="cross"`) / crossDecided
		}
		m["shard.in_doubt"] = float64(st.coord.Metrics().Cross.InDoubt)
	}

	m["load.generator_late_p99_ms"] = nan
	if late != nil {
		m["load.generator_late_p99_ms"] = quantile(ms(late), 0.99)
	}
	return m
}

// combineLayers merges the rounds' per-layer metrics: counts and GC
// pauses add up over the rounds, the heap peak is the largest, and every
// other metric is the median of the rounds that exercise the layer. The
// trace.* figures are the run's own end-to-end figures, computed over
// all rounds as in an untraced run.
func combineLayers(rs []*round, e2e map[string]float64) map[string]float64 {
	m := make(map[string]float64, len(perLayerDefs))
	for _, d := range perLayerDefs {
		var xs []float64
		for _, r := range rs {
			if v := r.layers[d.name]; !math.IsNaN(v) {
				xs = append(xs, v)
			}
		}
		switch {
		case len(xs) == 0:
			m[d.name] = math.NaN()
		case summedLayers[d.name]:
			m[d.name] = 0
			for _, x := range xs {
				m[d.name] += x
			}
		case d.name == "proc.heap_peak_mb":
			m[d.name] = quantile(xs, 1)
		default:
			m[d.name] = median(xs)
		}
	}
	for _, name := range []string{"latency_p50_ms", "latency_mean_ms", "latency_p90_ms", "latency_p99_ms", "goodput_tps", "cpu_us_per_decision"} {
		m["trace."+name] = e2e[name]
	}
	return m
}

// summedLayers are the per-layer metrics that count events over the
// window, so a run's value is the sum of its rounds'.
var summedLayers = map[string]bool{
	"transport.dropped":      true,
	"txn.abandoned":          true,
	"shard.in_doubt":         true,
	"proc.gc_pause_total_ms": true,
}

// serviceStages returns the per-stage latency summaries. The sharded
// deployment has one recorder per group; each stage's percentiles are
// the groups' weighted by sample count.
func serviceStages(st *stack) map[string]service.StageLatency {
	if st.svc != nil {
		return st.svc.Metrics().Stages
	}
	out := make(map[string]service.StageLatency)
	for _, g := range st.coord.Metrics().PerShard {
		for name, s := range g.Stages {
			acc := out[name]
			acc.P50Ms += s.P50Ms * float64(s.Count)
			acc.P99Ms += s.P99Ms * float64(s.Count)
			acc.Count += s.Count
			out[name] = acc
		}
	}
	for name, s := range out {
		if s.Count > 0 {
			s.P50Ms /= float64(s.Count)
			s.P99Ms /= float64(s.Count)
		}
		out[name] = s
	}
	return out
}
