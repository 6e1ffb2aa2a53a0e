package main

import "strings"

// The metric catalogue. BENCHMARK.json at the root of the repository
// lists the same names, units, directions and bounds; bench_test.go
// fails if the two drift apart.

// routeRateQPS is the fixed open-loop rate of route-mixed phase B:
// about a third of the closed-loop capacity phase A measured (≈ 150/s)
// on the two-core reference box at the commit that introduced the
// benchmark. At half of capacity the two connections the generator is
// allowed were both busy so often that the median sat on the edge
// between queued and not queued and moved by a third from run to run.
// It is set once and never recomputed, so that a faster router shows
// as lower latency at the same offered load.
const routeRateQPS = 50

// defaultSeconds is run_seconds in BENCHMARK.json.
const defaultSeconds = 10

type metricDef struct {
	name   string
	unit   string
	higher bool    // true: larger is better
	bound  float64 // end-to-end only: share of the median it may worsen by
}

var workloads = []struct {
	name, why string
	run       func(*run) error
}{
	{"codec-ops", "the paper's experiment: 8 codecs x 3 distributions x 2 densities, decode/AND/OR in-process; kernels, bitmap and intlist do all the work, no serving layer runs", runCodecOps},
	{"serve-boolean", "point/AND/OR 4:3:2 against one bvserve, closed loop, working set fits the cache: large answers, so decode+merge and JSON encoding dominate, top-k idle", func(r *run) error { return runServe(r, mixBoolean) }},
	{"serve-topk", "ranked queries only against one bvserve: tiny answers, so Block-Max top-k and impacts do the work; bypasses the decoded cache and union", func(r *run) error { return runServe(r, mixTopK) }},
	{"route-mixed", "real bvrouter over 2 bvserve shards with the cache off: closed-loop capacity, then open loop at a fixed rate; fan-out, merges, double JSON hop, native union", runRoute},
	{"live-mixed", "bvserve -live: one writer (ingest, 1 in 10 a delete) beside one reader, seals and a compaction in the window, then SIGKILL, restart and a sweep of every acked write", runLive},
}

// endToEnd metrics are reported by every workload; README.md says what
// each one means on each. The timing bounds are the largest the driver
// allows: the reference box's speed wanders by ±15 % in spells of 2 to
// 20 s, which puts the quartile spread of any 10 s timing at 5 to 15 %
// of its median across runs (README.md, "Repeatability").
var endToEnd = []metricDef{
	{"setup_s", "s", false, 0.25},
	{"throughput_qps", "1/s", true, 0.25},
	{"latency_p50_ms", "ms", false, 0.25},
	{"latency_p95_ms", "ms", false, 0.25},
	{"bits_per_int", "bit", false, 0.02},
	{"rss_peak_mb", "MB", false, 0.25},
}

// codecNames are the eight codecs of codec-ops with the module they
// live in; metric names spell * as -star and + as -.
var codecNames = []struct{ module, codec string }{
	{"bitmap", "Roaring"},
	{"bitmap", "Roaring+Run"},
	{"bitmap", "WAH"},
	{"intlist", "SIMDBP128*"},
	{"intlist", "SIMDPforDelta*"},
	{"intlist", "PforDelta*"},
	{"intlist", "VB"},
	{"intlist", "PEF"},
}

func metricCodec(name string) string {
	return strings.NewReplacer("*", "-star", "+", "-").Replace(name)
}

// perLayer metrics carry no bound. A workload's traced run reports the
// ones its layers produce and 0 for the rest.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	var out []metricDef
	add := func(unit string, higher bool, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{name: n, unit: unit, higher: higher})
		}
	}
	// kernels
	add("Mint/s", true, "kernels.vunpackdelta_mints_s", "kernels.vunpack_mints_s",
		"kernels.vunpackbase_mints_s", "kernels.unpack_mints_s")
	add("GB/s", true, "kernels.andwords_gb_s")
	// bitmap / intlist
	for _, c := range codecNames {
		p := c.module + "." + metricCodec(c.codec)
		add("Mint/s", true, p+".decode_mints_s")
		add("us", false, p+".and_us", p+".or_us")
		add("bit", false, p+".bits_per_int")
	}
	add("Mint/s", true, "codec.decode_mints_s")
	add("us", false, "codec.and_us", "codec.or_us")
	// ops
	add("us", false, "ops.intersect_us", "ops.union_serial_us", "ops.union_engine_us",
		"ops.topk_bmw_us", "ops.topk_exhaustive_us")
	add("ratio", false, "ops.topk_blocks_decoded_frac")
	add("count", false, "ops.topk_docs_scored", "ops.allocs_per_query")
	// index
	add("1/s", true, "index.build_docs_s")
	add("ms", false, "index.open_ms")
	add("us", false, "index.lookup_cold_us", "index.and_us", "index.or_cached_us",
		"index.or_uncached_us", "index.topk_us")
	add("ratio", true, "index.cache_hit_ratio")
	add("B", false, "index.file_bytes_per_posting")
	// server
	add("us", false, "server.handler_self_us", "server.handler_self_topk_us", "server.http_self_us")
	add("B", false, "server.resp_bytes_mean")
	add("ms", false, "server.point_p50_ms", "server.and_p50_ms", "server.or_p50_ms")
	// shard
	add("us", false, "shard.router_inproc_us", "shard.merge_self_us")
	add("ratio", false, "shard.fanout_skew_frac")
	add("us", false, "shard.http_backend_self_us")
	add("ms", false, "shard.router_proc_self_ms", "shard.per_shard_p99_ms")
	add("count", false, "shard.partial_count")
	add("us", false, "shard.hedge_off_p50_us", "shard.hedge_on_p50_us")
	add("ms", false, "route.closed_p50_ms", "route.closed_p99_ms")
	// wal
	add("us", false, "wal.append_sync_us", "wal.group_ack_p50_us", "wal.group_ack_p99_us")
	add("B", false, "wal.bytes_per_doc")
	add("ratio", false, "wal.fsyncs_per_append")
	// live
	add("us", false, "live.add_us", "live.add_p99_us_alone", "live.add_p99_us_with_reader")
	add("ms", false, "live.seal_ms", "live.compact_ms")
	add("count", true, "live.seals", "live.compactions")
	add("us", false, "live.and_us", "live.or_us", "live.topk_us")
	add("1/s", true, "live.replay_docs_s")
	add("ms", false, "live.read_p50_ms", "live.read_p99_ms")
	add("1/s", true, "live.ingest_docs_s")
	add("ms", false, "live.ingest_ack_p50_ms", "live.ingest_ack_p99_ms")
	// processes and the generator itself
	add("ms", false, "bvserve.cpu_ms_per_query", "bvrouter.cpu_ms_per_query")
	add("ratio", false, "loadgen.client_cpu_frac")
	add("ms", false, "loadgen.sched_lag_p99_ms")
	add("ratio", false, "loadgen.trace_overhead_frac")
	return out
}
