package main

// metricDef names a reported metric. BENCHMARK.json carries the same
// table for the driver; a test keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: share of the parent's median it may worsen by
}

// endToEnd is measured with tracing off, on every workload. An operation
// is one job (terasort_*) or one round of every reducer fetching its
// partition (shuffle_*).
var endToEnd = []metricDef{
	{Name: "op_ms_p50", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "mb_per_s", Unit: "MB/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_s_per_gb", Unit: "s/GB", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_gb", Unit: "MB/GB", Better: "lower", Bound: 0.05},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer is reported by a traced run: ladder rungs first, then what the
// traced workload itself shows. A metric that does not apply to the
// workload run (core.* on terasort_http, mapred.* on shuffle_*) reads 0.
var perLayer = []metricDef{
	{Name: "verbs.send_recv_4k_ns", Unit: "ns", Better: "lower"},
	{Name: "verbs.rdma_write_4k_ns", Unit: "ns", Better: "lower"},
	{Name: "verbs.rdma_write_1m_ns", Unit: "ns", Better: "lower"},
	{Name: "verbs.rdma_read_4k_ns", Unit: "ns", Better: "lower"},
	{Name: "verbs.rdma_read_1m_ns", Unit: "ns", Better: "lower"},
	{Name: "verbs.reg_mr_1m_ns", Unit: "ns", Better: "lower"},
	{Name: "ucr.msg_256b_ns", Unit: "ns", Better: "lower"},
	{Name: "ucr.msg_allocs", Unit: "allocs", Better: "lower"},
	{Name: "ucr.connect_ns", Unit: "ns", Better: "lower"},
	{Name: "ucr.rdma_read_128k_ns", Unit: "ns", Better: "lower"},
	{Name: "mrpool.alloc_free_4k_ns", Unit: "ns", Better: "lower"},
	{Name: "mrpool.alloc_free_128k_ns", Unit: "ns", Better: "lower"},
	{Name: "mrpool.pinned_mb", Unit: "MB", Better: "lower"},
	{Name: "mrpool.slab_allocs", Unit: "1/op", Better: "lower"},
	{Name: "mrpool.slab_failures", Unit: "1/op", Better: "lower"},
	{Name: "wire.req_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.resp_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.manifest_codec_ns", Unit: "ns", Better: "lower"},
	{Name: "core.cache_get_ns", Unit: "ns", Better: "lower"},
	{Name: "core.cache_put_128k_ns", Unit: "ns", Better: "lower"},
	{Name: "core.cache_acquire_release_ns", Unit: "ns", Better: "lower"},
	{Name: "core.fetch_chunk_us", Unit: "us", Better: "lower"},
	{Name: "core.fetch_allocs_per_chunk", Unit: "allocs", Better: "lower"},
	{Name: "core.fetcher_open_close_us", Unit: "us", Better: "lower"},
	{Name: "core.fetcher_new_us", Unit: "us", Better: "lower"},
	{Name: "core.first_record_us", Unit: "us", Better: "lower"},
	{Name: "core.drain_us", Unit: "us", Better: "lower"},
	{Name: "core.fetcher_close_us", Unit: "us", Better: "lower"},
	{Name: "core.packets", Unit: "1/op", Better: "lower"},
	{Name: "core.responder_busy_ms_per_mb", Unit: "ms/MB", Better: "lower"},
	{Name: "core.slot_stalls", Unit: "1/op", Better: "lower"},
	{Name: "core.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.payload_pool_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.zerocopy_fallback_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.conn_opened", Unit: "1/op", Better: "lower"},
	{Name: "core.conn_reused", Unit: "1/op", Better: "higher"},
	{Name: "core.conn_evicted", Unit: "1/op", Better: "lower"},
	{Name: "core.reconnects", Unit: "1/op", Better: "lower"},
	{Name: "core.retries", Unit: "1/op", Better: "lower"},
	{Name: "kv.sort_ns_per_rec", Unit: "ns/rec", Better: "lower"},
	{Name: "kv.partition_sort_ns_per_rec", Unit: "ns/rec", Better: "lower"},
	{Name: "kv.merge_k8_ns_per_rec", Unit: "ns/rec", Better: "lower"},
	{Name: "kv.merge_k64_ns_per_rec", Unit: "ns/rec", Better: "lower"},
	{Name: "kv.write_run_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "kv.read_run_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "hdfs.write_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "hdfs.read_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "storage.put_get_1m_ns", Unit: "ns", Better: "lower"},
	{Name: "storage.mapoutput_disk_reads", Unit: "1/op", Better: "lower"},
	{Name: "mapred.map_task_s", Unit: "s", Better: "lower"},
	{Name: "mapred.reduce_shuffle_s", Unit: "s", Better: "lower"},
	{Name: "mapred.reduce_apply_s", Unit: "s", Better: "lower"},
	{Name: "mapred.sched_overhead_s", Unit: "s", Better: "lower"},
	{Name: "httpshuffle.shuffle_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "hadoopa.shuffle_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "obs.tracing_overhead_pct", Unit: "%", Better: "lower"},
	{Name: "obs.fetch_p50_us", Unit: "us", Better: "lower"},
	{Name: "obs.fetch_p99_us", Unit: "us", Better: "lower"},
	{Name: "obs.ttfb_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.merge_stall_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.shuffle_merge_overlap_ms", Unit: "ms", Better: "higher"},
	{Name: "workload.teragen_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "workload.validate_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "tail.op_ms_p90", Unit: "ms", Better: "lower"},
}

func teraWorkload(name, engine, why string) workload {
	return workload{
		Name: name, Why: why, OpsPer20s: 16, Warmup: 1,
		Tera: &teraSizes{Engine: engine, Nodes: 4, Rows: 1_000_000, BlockBytes: 1 << 20,
			Reduces: 8, MapSlots: 1, ReduceSlots: 2},
	}
}

// workloads are the four sets of inputs, sized on a 2-core box so that a
// run of -seconds 20 times a little under 20 s of work.
var workloads = []workload{
	teraWorkload("terasort_osu", "osu-ib-rdma",
		"the paper's headline job on the RDMA engine: mapred, kv and hdfs do most of the work, core/ucr/verbs little"),
	teraWorkload("terasort_http", "vanilla-http",
		"the paper's baseline and the bypass: never touches core/ucr/verbs/mrpool, so a change there must leave it unmoved"),
	{
		Name: "shuffle_bulk", OpsPer20s: 400, Warmup: 20,
		Why: "large cache-resident partitions, shuffle only: bytes/s through responder, ucr, verbs, copier and merge heap",
		Shuffle: &shuffleSizes{Engine: "osu-ib-rdma", Nodes: 4, Maps: 16, Reduces: 8,
			PartBytes: 1 << 20, Caching: true},
	},
	{
		Name: "shuffle_small", OpsPer20s: 900, Warmup: 50,
		Why: "4 KiB partitions with caching off, shuffle only: per-message cost dominates and bytes/s is irrelevant",
		Shuffle: &shuffleSizes{Engine: "osu-ib-rdma", Nodes: 4, Maps: 64, Reduces: 16,
			PartBytes: 4 << 10, TeraRecords: true, Caching: false},
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}
