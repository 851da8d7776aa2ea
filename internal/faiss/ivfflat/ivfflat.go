// Package ivfflat implements the specialized (Faiss-style) IVF_FLAT index:
// a K-means coarse quantizer over in-memory float32 vectors, with each
// vector stored uncompressed in the bucket (inverted list) of its nearest
// centroid.
//
// Every root-cause toggle the paper studies on this index is an explicit
// option:
//
//   - RC#1 UseGemm: SGEMM-batched assignment in the adding phase (Fig 3/4).
//   - RC#3 Threads: parallel build (Fig 9) and local-heap parallel search
//     (Fig 18).
//   - RC#5 KMeansFlavor: which K-means implementation trains the coarse
//     centroids (Fig 14/15).
//   - RC#6 is fixed "on" here: search uses a bounded heap of size k. The
//     PASE engine (internal/pase/ivfflat) uses the size-n collector.
package ivfflat

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"vecstudy/internal/kmeans"
	"vecstudy/internal/minheap"
	"vecstudy/internal/vec"
)

// Options configures the index at construction time.
type Options struct {
	Dim          int           // vector dimensionality; required
	NList        int           // number of coarse clusters (paper parameter c); required
	UseGemm      bool          // RC#1: batched SGEMM distance computation
	Threads      int           // RC#3: build parallelism; ≤1 serial (paper default 1)
	KMeansFlavor kmeans.Flavor // RC#5
	SampleRatio  float64       // K-means training sample ratio (paper parameter sr)
	Seed         int64
	Kernel       vec.Kernel // scores probe selection and bucket scans; nil = vec.Default()
}

// Stats reports construction timing, split the way Figs 3–6 report it.
type Stats struct {
	TrainTime time.Duration
	AddTime   time.Duration
	NAdded    int
}

// Index is an in-memory IVF_FLAT index. It is safe for concurrent
// searches after construction; Train/Add are not concurrency-safe.
type Index struct {
	opts      Options
	centroids []float32 // NList×Dim
	cnorms    []float32 // cached ‖c‖², reused by the decomposed distance path
	listVecs  [][]float32
	listIDs   [][]int64
	stats     Stats
	trained   bool
}

// New creates an empty index. It returns an error for invalid options so
// misconfiguration surfaces at construction rather than mid-benchmark.
func New(opts Options) (*Index, error) {
	if opts.Dim <= 0 {
		return nil, errors.New("ivfflat: Dim must be positive")
	}
	if opts.NList <= 0 {
		return nil, errors.New("ivfflat: NList must be positive")
	}
	if opts.Kernel == nil {
		opts.Kernel = vec.Default()
	}
	return &Index{opts: opts}, nil
}

// Opts returns the construction options.
func (ix *Index) Opts() Options { return ix.opts }

// Stats returns build timing collected so far.
func (ix *Index) Stats() Stats { return ix.stats }

// NList returns the number of coarse clusters.
func (ix *Index) NList() int { return ix.opts.NList }

// Centroids exposes the trained codebook (row-major NList×Dim). It is the
// hook used by the Fig 15 experiment to copy PASE's centroids into a
// Faiss-side index ("Faiss*").
func (ix *Index) Centroids() []float32 { return ix.centroids }

// SetCentroids installs externally trained centroids, marking the index
// trained. The slice is copied.
func (ix *Index) SetCentroids(c []float32) error {
	if len(c) != ix.opts.NList*ix.opts.Dim {
		return fmt.Errorf("ivfflat: centroid matrix must be %d×%d", ix.opts.NList, ix.opts.Dim)
	}
	ix.centroids = append([]float32(nil), c...)
	ix.cnorms = vec.Norms2(ix.centroids, ix.opts.NList, ix.opts.Dim, make([]float32, ix.opts.NList))
	ix.listVecs = make([][]float32, ix.opts.NList)
	ix.listIDs = make([][]int64, ix.opts.NList)
	ix.trained = true
	return nil
}

// Train runs K-means over the n×Dim row-major matrix data to build the
// coarse codebook (the paper's "training phase").
func (ix *Index) Train(data []float32, n int) error {
	start := time.Now()
	res, err := kmeans.Train(data, n, ix.opts.Dim, kmeans.Config{
		K:           ix.opts.NList,
		Seed:        ix.opts.Seed,
		SampleRatio: ix.opts.SampleRatio,
		UseGemm:     ix.opts.UseGemm,
		Threads:     ix.opts.Threads,
		Flavor:      ix.opts.KMeansFlavor,
	})
	if err != nil {
		return fmt.Errorf("ivfflat: train: %w", err)
	}
	ix.stats.TrainTime += time.Since(start)
	return ix.SetCentroids(res.Centroids)
}

// Add assigns each vector to its nearest centroid and appends it to that
// bucket (the paper's "adding phase"). ids may be nil, in which case rows
// get sequential IDs continuing from the current count.
func (ix *Index) Add(data []float32, n int, ids []int64) error {
	if !ix.trained {
		return errors.New("ivfflat: Add before Train")
	}
	if ids != nil && len(ids) != n {
		return fmt.Errorf("ivfflat: %d ids for %d vectors", len(ids), n)
	}
	start := time.Now()
	d := ix.opts.Dim
	assign := make([]int32, n)
	vec.AssignBatch(data, n, ix.centroids, ix.opts.NList, d, assign, nil, ix.opts.UseGemm, ix.opts.Threads)
	base := int64(ix.stats.NAdded)
	for i := 0; i < n; i++ {
		list := assign[i]
		ix.listVecs[list] = append(ix.listVecs[list], data[i*d:(i+1)*d]...)
		id := base + int64(i)
		if ids != nil {
			id = ids[i]
		}
		ix.listIDs[list] = append(ix.listIDs[list], id)
	}
	ix.stats.NAdded += n
	ix.stats.AddTime += time.Since(start)
	return nil
}

// SearchParams tunes one search call.
type SearchParams struct {
	NProbe  int // number of buckets to scan (paper parameter nprobe); required
	Threads int // RC#3 intra-query parallelism; ≤1 serial
}

// Search returns the k nearest stored vectors to query, ascending by
// distance.
func (ix *Index) Search(query []float32, k int, p SearchParams) ([]minheap.Item, error) {
	if !ix.trained {
		return nil, errors.New("ivfflat: Search before Train")
	}
	if len(query) != ix.opts.Dim {
		return nil, fmt.Errorf("ivfflat: query dimension %d != %d", len(query), ix.opts.Dim)
	}
	if k <= 0 {
		return nil, errors.New("ivfflat: k must be positive")
	}
	nprobe := p.NProbe
	if nprobe <= 0 {
		nprobe = 1
	}
	if nprobe > ix.opts.NList {
		nprobe = ix.opts.NList
	}
	probes := ix.selectProbes(query, nprobe)
	if p.Threads > 1 {
		return ix.searchParallel(query, k, probes, p.Threads), nil
	}
	heap := minheap.NewTopK(k)
	d := ix.opts.Dim
	for _, list := range probes {
		vecs, ids := ix.listVecs[list], ix.listIDs[list]
		for i, id := range ids {
			heap.Push(id, ix.opts.Kernel.L2Sqr(query, vecs[i*d:(i+1)*d]))
		}
	}
	return heap.Results(), nil
}

// selectProbes ranks centroids by distance to the query and returns the
// nprobe closest list numbers.
func (ix *Index) selectProbes(query []float32, nprobe int) []int32 {
	heap := minheap.NewTopK(nprobe)
	d := ix.opts.Dim
	for c := 0; c < ix.opts.NList; c++ {
		heap.Push(int64(c), ix.opts.Kernel.L2Sqr(query, ix.centroids[c*d:(c+1)*d]))
	}
	items := heap.Results()
	out := make([]int32, len(items))
	for i, it := range items {
		out[i] = int32(it.ID)
	}
	return out
}

// searchParallel scans probed buckets across worker goroutines, each with
// a local size-k heap, then merges — the Faiss strategy the paper
// contrasts with PASE's lock-guarded global heap in Fig 18.
func (ix *Index) searchParallel(query []float32, k int, probes []int32, threads int) []minheap.Item {
	if threads > len(probes) {
		threads = len(probes)
	}
	locals := make([]*minheap.TopK, threads)
	var next int32 = -1
	var mu sync.Mutex
	nextProbe := func() (int32, bool) {
		mu.Lock()
		defer mu.Unlock()
		next++
		if int(next) >= len(probes) {
			return 0, false
		}
		return probes[next], true
	}
	var wg sync.WaitGroup
	d := ix.opts.Dim
	for t := 0; t < threads; t++ {
		locals[t] = minheap.NewTopK(k)
		wg.Add(1)
		go func(local *minheap.TopK) {
			defer wg.Done()
			for {
				list, ok := nextProbe()
				if !ok {
					return
				}
				vecs, ids := ix.listVecs[list], ix.listIDs[list]
				for i, id := range ids {
					local.Push(id, ix.opts.Kernel.L2Sqr(query, vecs[i*d:(i+1)*d]))
				}
			}
		}(locals[t])
	}
	wg.Wait()
	return minheap.MergeLocal(k, locals)
}

// SizeBytes returns the in-memory index footprint: centroids, bucket
// vectors, and 8-byte IDs — the quantity Fig 11 reports.
func (ix *Index) SizeBytes() int64 {
	size := int64(len(ix.centroids)) * 4
	for i := range ix.listVecs {
		size += int64(len(ix.listVecs[i]))*4 + int64(len(ix.listIDs[i]))*8
	}
	return size
}

// ListSizes returns the population of every bucket; benchmarks use it to
// report cluster skew between K-means flavours (RC#5).
func (ix *Index) ListSizes() []int {
	out := make([]int, ix.opts.NList)
	for i := range ix.listIDs {
		out[i] = len(ix.listIDs[i])
	}
	return out
}

// Assignments returns, for each stored vector ID, its bucket. The Fig 15
// experiment uses it to clone PASE's exact clustering into Faiss*.
func (ix *Index) Assignments() map[int64]int32 {
	out := make(map[int64]int32, ix.stats.NAdded)
	for list, ids := range ix.listIDs {
		for _, id := range ids {
			out[id] = int32(list)
		}
	}
	return out
}

// AddPreassigned appends vectors with externally determined bucket
// assignments, bypassing the quantizer (Fig 15's Faiss* construction).
func (ix *Index) AddPreassigned(data []float32, n int, ids []int64, assign []int32) error {
	if !ix.trained {
		return errors.New("ivfflat: AddPreassigned before centroids installed")
	}
	d := ix.opts.Dim
	for i := 0; i < n; i++ {
		list := assign[i]
		if int(list) >= ix.opts.NList {
			return fmt.Errorf("ivfflat: assignment %d out of range", list)
		}
		ix.listVecs[list] = append(ix.listVecs[list], data[i*d:(i+1)*d]...)
		ix.listIDs[list] = append(ix.listIDs[list], ids[i])
	}
	ix.stats.NAdded += n
	return nil
}
