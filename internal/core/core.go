// Package core is the study itself as a library: it builds the same
// index (IVF_FLAT, IVF_PQ, or HNSW) with the same parameters in both
// engines — the specialized in-memory engine (internal/faiss/...) and the
// generalized PostgreSQL-style engine (internal/pase/... over
// internal/pg/...) — runs identical workloads against them, and reports
// build time, index size, search latency, and recall side by side.
//
// Every root cause the paper isolates is a field of Params, so each
// experiment is "flip one toggle, rerun, compare":
//
//	RC#1 UseGemm         RC#5 KMeansFlavor
//	RC#2 (inherent in engine choice; single-lock pool, see paperPartitions)
//	RC#3 BuildThreads / SearchThreads
//	RC#4 PageSize, Packed
//	RC#6 GeneralizedIndex.ScanOpts().HeapK
//	RC#7 PrecomputeTable
package core

import (
	"fmt"
	"time"

	"vecstudy/internal/dataset"
	"vecstudy/internal/kmeans"
	"vecstudy/internal/pg/am"
	"vecstudy/internal/vec"
)

// IndexKind selects one of the paper's three index families.
type IndexKind string

// The three index families of Sec II-B.
const (
	IVFFlat IndexKind = "ivf_flat"
	IVFPQ   IndexKind = "ivf_pq"
	HNSW    IndexKind = "hnsw"
)

// Engine identifies which side of the comparison an index belongs to.
type Engine string

// The engines under study.
const (
	// Specialized is the Faiss-analog in-memory engine.
	Specialized Engine = "specialized"
	// Generalized is the PASE-analog engine on the PostgreSQL substrate.
	Generalized Engine = "generalized"
	// GeneralizedBaseline is the pgvector-style sibling used in Fig 2.
	GeneralizedBaseline Engine = "generalized_baseline"
)

// The paper-faithful positions of the four knobs a served database
// starts on the fast side of: am.DefaultScanOpts() has heap = k and the
// best kernel the host registered, CREATE INDEX … USING hnsw builds
// packed = true, and db.Open splits the pool into 16 partitions. Every
// engine a paper experiment of cmd/benchrunner measures is built by
// this package, and this block is the one place those engines take the
// four positions from — so a figure of EXPERIMENTS.md means what it
// meant when it was recorded, and an ablation flips one of them from a
// stated baseline instead of from whatever a session defaults to.
const (
	// PaperKernel scores both engines' searches and every specialized
	// build. One kernel on both sides keeps a gap a statement about the
	// engines (RC#2–RC#7) rather than about the instruction set;
	// cmd/kernelgate gates that axis on its own. Every recorded figure
	// ran on unrolled, which every host registers. One exception: the
	// PASE HNSW build scores with ref (refKern in internal/pase/hnsw),
	// so Fig 7, Tab III and Fig 8's build side compare a ref-built PASE
	// graph against an unrolled-built Faiss one, and ref is about 1.7×
	// slower per d = 128 distance (EXPERIMENTS.md, Fig 7).
	PaperKernel = "unrolled"
	// paperHeapK is RC#6's position: PASE's size-n candidate collector.
	paperHeapK = false
	// paperPacked is RC#4's position: a page chain per adjacency list.
	paperPacked = false
	// paperPartitions is RC#2/RC#3's pool: one global lock every tuple
	// access funnels through.
	paperPartitions = 1
)

// paperHeap is paperHeapK the way SET heap takes it.
var paperHeap, _ = (&am.ScanOpts{HeapK: paperHeapK}).Get("heap")

// paperKern is the kernel PaperKernel names.
var paperKern, _ = vec.ForName(PaperKernel)

// PaperPositions renders the pinned positions for an experiment header.
func PaperPositions() string {
	return fmt.Sprintf("distance_kernel=%s on both engines, generalized heap=%s, hnsw packed=%v, buffer_partitions=%d",
		PaperKernel, paperHeap, paperPacked, paperPartitions)
}

// Params carries the paper's Table II parameters plus the root-cause
// toggles. Zero values select the paper defaults (resolved against the
// dataset by Resolve).
type Params struct {
	K      int     // top-k (default 100, clamped to n/10 at tiny scales)
	C      int     // IVF clusters (default √n)
	NProbe int     // probed clusters (default 20)
	SR     float64 // K-means sampling ratio (default 0.01, floored by trainer)
	M      int     // IVF_PQ sub-vectors (default from the dataset profile)
	KSub   int     // PQ codewords (default 256, clamped at tiny scale)
	BNN    int     // HNSW base neighbor count (default 16)
	EFB    int     // HNSW build queue (default 40)
	EFS    int     // HNSW search queue (default 200)
	Seed   int64

	// Root-cause toggles (specialized engine; the generalized engine is
	// always the PASE configuration).
	UseGemm         bool          // RC#1 (default true on specialized)
	BuildThreads    int           // RC#3 build (default 1, the paper's default)
	SearchThreads   int           // RC#3 search (default 1)
	KMeansFlavor    kmeans.Flavor // RC#5 (specialized default FlavorFaiss)
	PrecomputeTable bool          // RC#7 (default true on specialized)

	// Generalized-engine substrate knobs.
	PageSize     int // RC#4 (default 8192)
	BufferFrames int // default sized to hold the whole index
	// Packed builds the generalized HNSW index on the memory-optimized
	// adjacency layout (the layout ablation); false is the paper's RC#4
	// position.
	Packed bool
}

// Defaults returns the paper's default parameters (Table II) resolved for
// a dataset: c = √n, k = min(100, n/10), PQ m from the profile.
func Defaults(ds *dataset.Dataset) Params {
	p := Params{
		K:      100,
		C:      ds.NumClusters(),
		NProbe: 20,
		SR:     0.01,
		M:      16,
		KSub:   256,
		BNN:    16,
		EFB:    40,
		EFS:    200,
		Seed:   42,

		UseGemm:         true,
		BuildThreads:    1,
		SearchThreads:   1,
		KMeansFlavor:    kmeans.FlavorFaiss,
		PrecomputeTable: true,
		PageSize:        8192,
		Packed:          paperPacked,
	}
	if prof, err := dataset.ProfileByName(ds.Name); err == nil {
		p.M = prof.PQM
	}
	if p.K > ds.N()/10 {
		p.K = ds.N() / 10
	}
	if p.K < 1 {
		p.K = 1
	}
	// At laptop scale a 256-codeword codebook cannot train on n/√n-sized
	// buckets; shrink codebooks when the dataset is small, preserving the
	// paper's configuration at full scale.
	if ds.N() < 100_000 {
		p.KSub = 64
	}
	return p
}

// BuildResult reports one index construction (Figs 3–7, 11–13).
type BuildResult struct {
	Engine    Engine
	Kind      IndexKind
	TrainTime time.Duration // quantizer training phase (IVF kinds)
	AddTime   time.Duration // adding phase
	Total     time.Duration
	SizeBytes int64
	N         int
}

// String renders the result the way the paper's bar charts are labeled.
func (r BuildResult) String() string {
	return fmt.Sprintf("%s/%s: total=%v train=%v add=%v size=%.1fMB",
		r.Engine, r.Kind, r.Total.Round(time.Millisecond),
		r.TrainTime.Round(time.Millisecond), r.AddTime.Round(time.Millisecond),
		float64(r.SizeBytes)/(1<<20))
}

// SearchResult reports a query workload (Figs 14–19).
type SearchResult struct {
	Engine     Engine
	Kind       IndexKind
	AvgLatency time.Duration // mean per-query latency
	Total      time.Duration
	Recall     float64 // recall@k against brute-force ground truth
	NQ         int
}

// String renders the result compactly.
func (r SearchResult) String() string {
	return fmt.Sprintf("%s/%s: avg=%v recall@k=%.3f (%d queries)",
		r.Engine, r.Kind, r.AvgLatency.Round(time.Microsecond), r.Recall, r.NQ)
}

// Index is the engine-neutral handle the harness searches through: it
// returns dataset row IDs, resolving TIDs through the heap table on the
// generalized side exactly as the SQL executor would.
type Index interface {
	Engine() Engine
	Kind() IndexKind
	// Search returns the IDs of the k nearest rows, ascending by distance.
	Search(query []float32, k int) ([]int64, error)
	// SizeBytes reports the index footprint.
	SizeBytes() int64
	// Close releases resources (the generalized side owns a database).
	Close() error
}

// Gap returns b/a as a human-scale ratio ("PASE is Gap× slower").
func Gap(a, b time.Duration) float64 {
	if a <= 0 {
		return 0
	}
	return float64(b) / float64(a)
}
