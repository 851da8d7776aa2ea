package main

import (
	"bytes"
	"encoding/json"
)

// workload is one served database shape and the traffic driven at it.
// Every workload loads the same table, t (id int, attr int, vec float[]),
// from the seeded sift1m-profile corpus and answers kNN statements with
// k = 10 over 200 cycled query vectors.
type workload struct {
	Name string
	Why  string

	rows     int      // table size at full scale
	am       string   // access method of the one index
	indexOpt string   // WITH (...) options of CREATE INDEX
	sets     []string // SET statements every reader connection starts with
	conns    int      // closed-loop reader connections
	frames   int      // buffer pool frames
	onDisk   bool     // file-backed Dir instead of in-memory page stores
	wal      bool     // EnableWAL
	filtered bool     // statements cycle WHERE attr < {1, 10, 50, 90}
	writer   bool     // an open-loop writer runs beside the readers

	faissGap    bool // the traced run also builds the specialized index over the same rows
	sideIndexes bool // the traced run also builds and searches ivfpq and ivfsq8

	// recallFloor fails the run when recall_at_10 drops below it; it sits
	// well under the value measured at the commit that added the benchmark.
	recallFloor float64
}

const (
	fullRows   = 20000 // rows of the IVF workloads; the corpus is generated at this size
	topK       = 10
	numQueries = 200
	// fitFrames holds the heap (~1,340 pages), the ivfflat index (~1,400)
	// and the two side indexes of ivf_solo with room to spare.
	fitFrames = 4096
	// coldFrames is ~9% of the ~2,750 heap + index pages of ivf_coldpool.
	coldFrames = 256

	ivfOpt = "clusters = 141, seed = 1"
)

var ivfSets = []string{"SET nprobe = 20"}

var workloads = []workload{
	{
		Name: "ivf_solo", rows: fullRows, am: "ivfflat", indexOpt: ivfOpt, sets: ivfSets, conns: 1, frames: fitFrames,
		faissGap: true, sideIndexes: true,
		recallFloor: 0.85,
		Why:         "one client on an in-memory ivfflat table: kernel, buffer pins and top-k heap dominate and a second core is idle",
	},
	{
		Name: "ivf_batched", rows: fullRows, am: "ivfflat", indexOpt: ivfOpt, conns: 2, frames: fitFrames,
		sets:        append([]string{"SET batch_window = 1000", "SET batch_max = 2"}, ivfSets...),
		recallFloor: 0.85,
		Why:         "two clients coalesced into multi-query probes: coalescer, MultiSearch page sharing and partition locks work; both cores busy",
	},
	{
		Name: "hnsw_solo", rows: fullRows / 10, am: "hnsw", indexOpt: "bnn = 16, efb = 40, seed = 1", conns: 1, frames: fitFrames,
		sets:        []string{"SET efs = 64"},
		faissGap:    true,
		recallFloor: 0.9,
		Why:         "short pointer-chasing queries: random page pins and the fixed serving cost (wire, parse, dispatch) dominate; slow graph build",
	},
	{
		Name: "ivf_coldpool", rows: fullRows, am: "ivfflat", indexOpt: ivfOpt, sets: ivfSets, conns: 1, frames: coldFrames, onDisk: true,
		recallFloor: 0.85,
		Why:         "ivf_solo with a file-backed pool of 256 frames, a tenth of the pages: the difference is the miss, evict and ReadBlock path",
	},
	{
		Name: "filtered_mix", rows: fullRows, am: "ivfflat", indexOpt: ivfOpt, sets: ivfSets, conns: 1, frames: fitFrames, filtered: true,
		recallFloor: 0.85,
		Why:         "WHERE attr < {1,10,50,90} cycled: the only workload where selectivity estimation, pre-filter heap scan and post-filter refill run",
	},
	{
		Name: "churn_mixed", rows: fullRows, am: "ivfflat", indexOpt: ivfOpt, sets: ivfSets, conns: 1, frames: fitFrames, onDisk: true, wal: true, writer: true,
		recallFloor: 0.85,
		Why:         "one reader beside a 50 stmt/s open-loop writer (INSERT/DELETE/UPDATE, VACUUM every 250) on a WAL-logged file-backed table",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// endToEndDef is one metric a user of the served database sees; Bound is
// the share of the parent's median by which it may worsen.
type endToEndDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// layerDef is one metric of a single layer, taken by the benchmark from
// outside that layer; it has no bound.
type layerDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

const (
	lower  = "lower"
	higher = "higher"
)

// The bounds on the timings are the widest the driver's contract allows.
// Within a quiet quarter of an hour ten runs of a workload agree to a few
// percent (README, Steadiness), but the reference sandbox drifts by up to
// 40% over tens of minutes, whatever runs on it, and a bound under that
// would reject changes for the weather.
var endToEnd = []endToEndDef{
	{"qps", "1/s", higher, 0.25},
	{"p50_ms", "ms", lower, 0.25},
	{"p95_ms", "ms", lower, 0.25},
	{"recall_at_10", "ratio", higher, 0.02},
	{"setup_s", "s", lower, 0.25},
	{"space_amp", "ratio", lower, 0.02},
	{"mem_mb", "MiB", lower, 0.10},
}

var perLayer = []layerDef{
	// Four end-to-end metrics of the issue that cannot be held to a bound.
	// p99_ms does not repeat on the reference sandbox: on the workloads whose
	// statements all cost about the same it is made of whichever 1-3% of the
	// requests the host disturbed, and moves by half between one quarter of
	// an hour and the next while p95_ms moves with the median. The driver's
	// contract wants every end-to-end metric on every workload and never 0:
	// fail_share is 0 when all is well and the write latencies exist on
	// churn_mixed only.
	{"p99_ms", "ms", lower},
	{"fail_share", "ratio", lower},
	{"write_p50_ms", "ms", lower},
	{"write_p99_ms", "ms", lower},

	{"wire.query_codec_us", "us", lower},
	{"wire.result_codec_us", "us", lower},
	{"client.ping_us", "us", lower},
	{"server.overhead_us", "us", lower},
	{"server.rejected", "count", lower},
	{"server.timeouts", "count", lower},
	{"server.errors", "count", lower},
	{"batch.mean_size", "count", higher},
	{"batch.solo_share", "ratio", lower},
	{"batch.multirun_us", "us", lower},
	{"batch.amortization_x", "ratio", higher},
	{"batch.wait_us", "us", lower},
	{"sql.parse_us", "us", lower},
	{"sql.plan_us", "us", lower},
	{"sql.run_us", "us", lower},
	{"sql.fetch_us", "us", lower},
	{"sql.strategy_pre_share", "ratio", lower},
	{"sql.strategy_post_share", "ratio", lower},
	{"sql.strategy_intraversal_share", "ratio", lower},
	{"am.search_us", "us", lower},
	{"am.build_s", "s", lower},
	{"am.index_mb", "MiB", lower},
	{"ivfflat.scan_us", "us", lower},
	{"ivfflat.tuples_scored", "count", lower},
	{"ivfpq.search_us", "us", lower},
	{"ivfsq8.search_us", "us", lower},
	{"vec.ns_per_vec", "ns", lower},
	{"vec.kernel_us", "us", lower},
	{"vec.kernel_share", "ratio", lower},
	{"minheap.push_us", "us", lower},
	{"buffer.pins_per_query", "count", lower},
	{"buffer.hit_rate", "ratio", higher},
	{"buffer.misses_per_query", "count", lower},
	{"buffer.evictions_per_query", "count", lower},
	{"buffer.pin_ns", "ns", lower},
	{"buffer.miss_ns", "ns", lower},
	{"buffer.pin_share", "ratio", lower},
	{"buffer.lock_waits", "count", lower},
	{"heap.scan_ms", "ms", lower},
	{"heap.decode_ns", "ns", lower},
	{"heap.get_visible_ns", "ns", lower},
	{"storage.read_ns", "ns", lower},
	{"storage.write_amp", "ratio", lower},
	{"wal.bytes_per_write", "B", lower},
	{"maintenance.vacuum_ms", "ms", lower},
	{"maintenance.dead_reclaimed", "count", higher},
	{"maintenance.index_repairs", "count", higher},
	{"db.gate_stall_ms", "ms", lower},
	{"db.read_p50_quiet_ms", "ms", lower},
	{"db.reopen_ms", "ms", lower},
	{"db.reopen_mismatch_rows", "count", lower},
	{"faiss.search_us", "us", lower},
	{"faiss.search_gap_x", "ratio", lower},
	{"bench.unattributed_share", "ratio", lower},
	{"bench.trace_overhead_share", "ratio", lower},
	{"bench.gen_late_ms", "ms", lower},
}

// runSeconds is the timed window the driver asks for; the suite's default.
const runSeconds = 10

// contractJSON renders BENCHMARK.json from the registry above, so the two
// cannot drift apart (the smoke test compares the file at the root).
func contractJSON() []byte {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	c := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []wl          `json:"workloads"`
		EndToEnd   []endToEndDef `json:"end_to_end"`
		PerLayer   []layerDef    `json:"per_layer"`
	}{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		c.Workloads = append(c.Workloads, wl{w.Name, w.Why})
	}
	var out bytes.Buffer
	enc := json.NewEncoder(&out)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	if err := enc.Encode(c); err != nil {
		panic(err) // the registry holds only strings and numbers
	}
	return out.Bytes()
}
