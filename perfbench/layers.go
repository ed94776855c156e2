package main

import "time"

// layerUnits lists every per-layer metric a traced run reports, with
// its unit. A metric whose layer is not on a workload's path reads 0
// there (the README's table names the workload each one belongs to).
var layerUnits = map[string]string{
	"pool.insert_call_ns_p50":       "ns",
	"pool.insert_call_ns_p99":       "ns",
	"pool.barrier_ms":               "ms",
	"pool.batch_mean":               "count",
	"pool.backpressure":             "count",
	"pool.depth_mean":               "count",
	"pool.views_published":          "count",
	"pool.stale_fallback_share":     "ratio",
	"delegation.inserts_per_drain":  "count",
	"delegation.delegated_share":    "ratio",
	"delegation.searches_per_query": "ratio",
	"delegation.squash_share":       "ratio",
	"sketch.memory_bytes":           "B",
	"dsserve.insertbatch_us_p50":    "us",
	"dsserve.insertbatch_us_p99":    "us",
	"dsserve.enqueue_ns_p99":        "ns",
	"dsserve.query_us_p50":          "us",
	"dsserve.query_us_p99":          "us",
	"dsserve.depth_mean":            "count",
	"dsserve.batch_mean":            "count",
	"dsserve.backpressure":          "count",
	"router.insert_self_us_p50":     "us",
	"router.insert_self_us_p99":     "us",
	"router.insert_fanout":          "count",
	"router.wire_bytes_per_entry":   "B",
	"router.query_self_us_p50":      "us",
	"router.query_self_us_p99":      "us",
	"router.query_fanout":           "count",
	"router.retries":                "count",
	"router.degraded_queries":       "count",
	"rebalance.join_s":              "s",
	"rebalance.leave_s":             "s",
	"rebalance.take_ms":             "ms",
	"rebalance.pull_ms":             "ms",
	"rebalance.import_ms":           "ms",
	"rebalance.drain_ms":            "ms",
	"rebalance.coordinator_self_ms": "ms",
	"rebalance.pulled_bytes":        "B",
	"rebalance.staged_entries":      "count",
	"rebalance.pairs":               "count",
	"rebalance.ingest_dip":          "ratio",
	"persist.checkpoint_ms":         "ms",
	"persist.checkpoint_bytes":      "B",
}

// layerMetrics derives every per-layer metric from a trace: timings from
// spans (self time where a layer calls another), counts from the
// counter snapshot the run stored with its spans.
func layerMetrics(st *spanTree, counters map[string]float64) map[string]float64 {
	m := make(map[string]float64, len(layerUnits))
	for name := range layerUnits {
		m[name] = counters[name]
	}

	ins := st.durs(st.named("pool.insert", ""), false, time.Nanosecond)
	m["pool.insert_call_ns_p50"] = quantile(ins, 0.5)
	m["pool.insert_call_ns_p99"] = quantile(ins, 0.99)
	m["pool.barrier_ms"] = quantile(st.durs(st.named("pool.barrier", ""), false, time.Millisecond), 0.5)

	// Router self time: the handler span of a measured client request
	// minus the backend calls it made. Backend calls as the router sees
	// them time the dsserve layer plus loopback transport.
	rins := st.named("router.insertbatch", "client.insertbatch")
	ri := st.durs(rins, true, time.Microsecond)
	m["router.insert_self_us_p50"] = quantile(ri, 0.5)
	m["router.insert_self_us_p99"] = quantile(ri, 0.99)
	bins := st.children(rins, "backend.insertbatch")
	stage := st.children(rins, "backend.staging.insertbatch")
	m["router.insert_fanout"] = ratio(float64(len(bins)+len(stage)), float64(len(rins)))
	_, sent, _ := totals(append(append([]*span{}, bins...), stage...))
	m["router.wire_bytes_per_entry"] = ratio(float64(sent), float64(batchLines*len(rins)))
	bi := st.durs(bins, false, time.Microsecond)
	m["dsserve.insertbatch_us_p50"] = quantile(bi, 0.5)
	m["dsserve.insertbatch_us_p99"] = quantile(bi, 0.99)

	rqs := st.named("router.query", "client.query")
	rq := st.durs(rqs, true, time.Microsecond)
	m["router.query_self_us_p50"] = quantile(rq, 0.5)
	m["router.query_self_us_p99"] = quantile(rq, 0.99)
	bqs := st.children(rqs, "backend.query")
	m["router.query_fanout"] = ratio(float64(len(bqs)), float64(len(rqs)))
	bq := st.durs(bqs, false, time.Microsecond)
	m["dsserve.query_us_p50"] = quantile(bq, 0.5)
	m["dsserve.query_us_p99"] = quantile(bq, 0.99)

	// Rebalance: backend calls made by the coordinator, classified by
	// path, averaged per moved pair; coordinator self time per Join or
	// Leave.
	joins, leaves := st.named("rebalance.join", ""), st.named("rebalance.leave", "")
	m["rebalance.join_s"] = quantile(st.durs(joins, false, time.Second), 0.5)
	m["rebalance.leave_s"] = quantile(st.durs(leaves, false, time.Second), 0.5)
	moves := append(append([]*span{}, joins...), leaves...)
	pairs := counters["rebalance.pairs"]
	perPair := func(paths ...string) (ms, resp float64) {
		for _, p := range paths {
			d, _, r := totals(st.children(moves, p))
			ms += float64(d) / 1e6
			resp += float64(r)
		}
		return ratio(ms, pairs), ratio(resp, pairs)
	}
	m["rebalance.take_ms"], _ = perPair("backend.checkpoint.take")
	m["rebalance.pull_ms"], m["rebalance.pulled_bytes"] = perPair("backend.checkpoint.export", "backend.checkpoint.provenance")
	m["rebalance.import_ms"], _ = perPair("backend.checkpoint.import")
	m["rebalance.drain_ms"], _ = perPair("backend.staging.drain")
	m["rebalance.coordinator_self_ms"] = mean(st.durs(moves, true, time.Millisecond))
	return m
}
