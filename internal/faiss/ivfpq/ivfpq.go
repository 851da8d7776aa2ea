// Package ivfpq implements the specialized (Faiss-style) IVF_PQ index:
// an IVF coarse quantizer whose buckets store product-quantized residual
// codes instead of raw vectors.
//
// The package exposes the paper's RC#7 directly: with
// Options.PrecomputeTable true (the Faiss default), the per-list distance
// tables are assembled from terms cached at train time plus one
// inner-product table per query; with it false the table is recomputed
// from scratch for every probed list, PASE-style, which is why the Fig 19b
// gap grows with nprobe.
package ivfpq

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"vecstudy/internal/kmeans"
	"vecstudy/internal/minheap"
	"vecstudy/internal/pq"
	"vecstudy/internal/vec"
)

// Options configures the index.
type Options struct {
	Dim          int  // required
	NList        int  // coarse clusters (paper parameter c); required
	M            int  // PQ subspaces (paper parameter m); required, must divide Dim
	KSub         int  // PQ codewords per subspace (paper parameter c_pq); 0 = 256
	UseGemm      bool // RC#1
	Threads      int  // RC#3
	KMeansFlavor kmeans.Flavor
	SampleRatio  float64
	Seed         int64
	// PrecomputeTable enables the Faiss-style precomputed term tables
	// (RC#7). Off reproduces the PASE per-list computation.
	PrecomputeTable bool
	Kernel          vec.Kernel // scores probe selection; nil = vec.Default()
}

// Stats reports construction timing split into the paper's phases.
type Stats struct {
	TrainTime time.Duration
	AddTime   time.Duration
	NAdded    int
}

// Index is an in-memory IVF_PQ index.
type Index struct {
	opts      Options
	centroids []float32
	quant     *pq.Quantizer
	// precomp[r][m][j] = ‖p_mj‖² + 2·c_{r,m}·p_mj, flattened
	// NList×M×KSub; nil unless PrecomputeTable.
	precomp   []float32
	listCodes [][]byte
	listIDs   [][]int64
	stats     Stats
	trained   bool
}

// New creates an empty index, validating options.
func New(opts Options) (*Index, error) {
	if opts.Dim <= 0 || opts.NList <= 0 {
		return nil, errors.New("ivfpq: Dim and NList must be positive")
	}
	if opts.M <= 0 || opts.Dim%opts.M != 0 {
		return nil, fmt.Errorf("ivfpq: M=%d must divide Dim=%d", opts.M, opts.Dim)
	}
	if opts.KSub == 0 {
		opts.KSub = 256
	}
	if opts.Kernel == nil {
		opts.Kernel = vec.Default()
	}
	return &Index{opts: opts}, nil
}

// Opts returns the construction options.
func (ix *Index) Opts() Options { return ix.opts }

// Stats returns build timing.
func (ix *Index) Stats() Stats { return ix.stats }

// Quantizer exposes the trained product quantizer.
func (ix *Index) Quantizer() *pq.Quantizer { return ix.quant }

// Train builds the coarse codebook and the product quantizer (over
// residuals), then — when PrecomputeTable is on — the per-list term
// tables.
func (ix *Index) Train(data []float32, n int) error {
	start := time.Now()
	d := ix.opts.Dim
	coarse, err := kmeans.Train(data, n, d, kmeans.Config{
		K:           ix.opts.NList,
		Seed:        ix.opts.Seed,
		SampleRatio: ix.opts.SampleRatio,
		UseGemm:     ix.opts.UseGemm,
		Threads:     ix.opts.Threads,
		Flavor:      ix.opts.KMeansFlavor,
	})
	if err != nil {
		return fmt.Errorf("ivfpq: coarse train: %w", err)
	}
	ix.centroids = coarse.Centroids

	// PQ is trained on residuals x − c(x), like Faiss's by_residual mode.
	// Training on the full set is wasteful; subsample like the coarse step.
	tn := n
	maxTrain := 256 * ix.opts.KSub / 4
	if maxTrain < 4*ix.opts.KSub {
		maxTrain = 4 * ix.opts.KSub
	}
	if tn > maxTrain {
		tn = maxTrain
	}
	assign := make([]int32, tn)
	vec.AssignBatch(data[:tn*d], tn, ix.centroids, ix.opts.NList, d, assign, nil, ix.opts.UseGemm, ix.opts.Threads)
	resid := make([]float32, tn*d)
	for i := 0; i < tn; i++ {
		c := ix.centroids[int(assign[i])*d : (int(assign[i])+1)*d]
		row := data[i*d : (i+1)*d]
		dst := resid[i*d : (i+1)*d]
		for j := range dst {
			dst[j] = row[j] - c[j]
		}
	}
	quant, err := pq.Train(resid, tn, d, pq.Config{
		M:       ix.opts.M,
		KSub:    ix.opts.KSub,
		Seed:    ix.opts.Seed + 1,
		UseGemm: ix.opts.UseGemm,
		Threads: ix.opts.Threads,
		Flavor:  ix.opts.KMeansFlavor,
	})
	if err != nil {
		return fmt.Errorf("ivfpq: pq train: %w", err)
	}
	ix.quant = quant

	if ix.opts.PrecomputeTable {
		ix.buildPrecomputedTables()
	}
	ix.listCodes = make([][]byte, ix.opts.NList)
	ix.listIDs = make([][]int64, ix.opts.NList)
	ix.trained = true
	ix.stats.TrainTime += time.Since(start)
	return nil
}

// buildPrecomputedTables fills precomp[r][m][j] = ‖p_mj‖² + 2·c_{r,m}·p_mj.
// This is the train-time work that lets search assemble a distance table
// with one multiply-add per entry instead of a dsub-length scalar loop.
func (ix *Index) buildPrecomputedTables() {
	q := ix.quant
	norms := q.CodewordNorms()
	ix.precomp = make([]float32, ix.opts.NList*q.M*q.KSub)
	threads := ix.opts.Threads
	if threads < 1 {
		threads = 1
	}
	var wg sync.WaitGroup
	per := (ix.opts.NList + threads - 1) / threads
	for t := 0; t < threads; t++ {
		lo := t * per
		if lo >= ix.opts.NList {
			break
		}
		hi := lo + per
		if hi > ix.opts.NList {
			hi = ix.opts.NList
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for r := lo; r < hi; r++ {
				c := ix.centroids[r*ix.opts.Dim : (r+1)*ix.opts.Dim]
				base := r * q.M * q.KSub
				for m := 0; m < q.M; m++ {
					cm := c[m*q.DSub : (m+1)*q.DSub]
					for j := 0; j < q.KSub; j++ {
						ix.precomp[base+m*q.KSub+j] = norms[m*q.KSub+j] + 2*vec.Dot(cm, q.Codeword(m, j))
					}
				}
			}
		}(lo, hi)
	}
	wg.Wait()
}

// Add encodes vectors as residual PQ codes and appends them to the bucket
// of their nearest coarse centroid.
func (ix *Index) Add(data []float32, n int, ids []int64) error {
	if !ix.trained {
		return errors.New("ivfpq: Add before Train")
	}
	start := time.Now()
	d := ix.opts.Dim
	assign := make([]int32, n)
	vec.AssignBatch(data, n, ix.centroids, ix.opts.NList, d, assign, nil, ix.opts.UseGemm, ix.opts.Threads)
	base := int64(ix.stats.NAdded)
	threads := ix.opts.Threads
	if threads < 1 {
		threads = 1
	}
	codes := make([]byte, n*ix.quant.M)
	var wg sync.WaitGroup
	per := (n + threads - 1) / threads
	for t := 0; t < threads; t++ {
		lo := t * per
		if lo >= n {
			break
		}
		hi := lo + per
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			resid := make([]float32, d)
			for i := lo; i < hi; i++ {
				c := ix.centroids[int(assign[i])*d : (int(assign[i])+1)*d]
				row := data[i*d : (i+1)*d]
				for j := range resid {
					resid[j] = row[j] - c[j]
				}
				ix.quant.Encode(resid, codes[i*ix.quant.M:(i+1)*ix.quant.M])
			}
		}(lo, hi)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		list := assign[i]
		ix.listCodes[list] = append(ix.listCodes[list], codes[i*ix.quant.M:(i+1)*ix.quant.M]...)
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
	NProbe  int
	Threads int
}

// Search returns the k approximate nearest neighbors of query using
// asymmetric distance computation over the PQ codes.
func (ix *Index) Search(query []float32, k int, p SearchParams) ([]minheap.Item, error) {
	if !ix.trained {
		return nil, errors.New("ivfpq: Search before Train")
	}
	if len(query) != ix.opts.Dim {
		return nil, fmt.Errorf("ivfpq: query dimension %d != %d", len(query), ix.opts.Dim)
	}
	if k <= 0 {
		return nil, errors.New("ivfpq: k must be positive")
	}
	nprobe := p.NProbe
	if nprobe <= 0 {
		nprobe = 1
	}
	if nprobe > ix.opts.NList {
		nprobe = ix.opts.NList
	}
	probes, coarseDists := ix.selectProbes(query, nprobe)
	if p.Threads > 1 {
		return ix.searchParallel(query, k, probes, coarseDists, p.Threads), nil
	}
	heap := minheap.NewTopK(k)
	tab := make([]float32, ix.quant.M*ix.quant.KSub)
	var ipTab []float32
	if ix.opts.PrecomputeTable {
		ipTab = make([]float32, ix.quant.M*ix.quant.KSub)
		ix.quant.InnerProductTable(query, ipTab)
	}
	scratch := make([]float32, ix.opts.Dim)
	for pi, list := range probes {
		ix.listTable(query, list, coarseDists[pi], ipTab, tab, scratch)
		ix.scanList(list, coarseDists[pi], tab, heap)
	}
	return heap.Results(), nil
}

// listTable fills tab with the per-codeword distance contributions for
// one probed list. With precomputed tables the entries are
// precomp − 2·ip (to be offset by the coarse term1 during the scan);
// without, the entries are exact residual sub-distances and term1 is 0.
func (ix *Index) listTable(query []float32, list int32, term1 float32, ipTab, tab, scratch []float32) {
	q := ix.quant
	if ix.opts.PrecomputeTable {
		base := int(list) * q.M * q.KSub
		pc := ix.precomp[base : base+q.M*q.KSub]
		for i := range tab {
			tab[i] = pc[i] - 2*ipTab[i]
		}
		return
	}
	// PASE path: recompute the residual and a naive table per list.
	c := ix.centroids[int(list)*ix.opts.Dim : (int(list)+1)*ix.opts.Dim]
	for j := range scratch {
		scratch[j] = query[j] - c[j]
	}
	q.DistanceTableNaive(scratch, tab)
}

// scanList accumulates table lookups for every code in the list and pushes
// candidates into the heap.
func (ix *Index) scanList(list int32, term1 float32, tab []float32, heap *minheap.TopK) {
	q := ix.quant
	codes := ix.listCodes[list]
	ids := ix.listIDs[list]
	offset := float32(0)
	if ix.opts.PrecomputeTable {
		offset = term1
	}
	for i, id := range ids {
		code := codes[i*q.M : (i+1)*q.M]
		dist := offset
		for m, cj := range code {
			dist += tab[m*q.KSub+int(cj)]
		}
		heap.Push(id, dist)
	}
}

func (ix *Index) selectProbes(query []float32, nprobe int) ([]int32, []float32) {
	heap := minheap.NewTopK(nprobe)
	d := ix.opts.Dim
	for c := 0; c < ix.opts.NList; c++ {
		heap.Push(int64(c), ix.opts.Kernel.L2Sqr(query, ix.centroids[c*d:(c+1)*d]))
	}
	items := heap.Results()
	lists := make([]int32, len(items))
	dists := make([]float32, len(items))
	for i, it := range items {
		lists[i] = int32(it.ID)
		dists[i] = it.Dist
	}
	return lists, dists
}

func (ix *Index) searchParallel(query []float32, k int, probes []int32, coarseDists []float32, threads int) []minheap.Item {
	if threads > len(probes) {
		threads = len(probes)
	}
	var ipTab []float32
	if ix.opts.PrecomputeTable {
		ipTab = make([]float32, ix.quant.M*ix.quant.KSub)
		ix.quant.InnerProductTable(query, ipTab)
	}
	locals := make([]*minheap.TopK, threads)
	var wg sync.WaitGroup
	var cursor int32 = -1
	var mu sync.Mutex
	nextIdx := func() int {
		mu.Lock()
		defer mu.Unlock()
		cursor++
		if int(cursor) >= len(probes) {
			return -1
		}
		return int(cursor)
	}
	for t := 0; t < threads; t++ {
		locals[t] = minheap.NewTopK(k)
		wg.Add(1)
		go func(local *minheap.TopK) {
			defer wg.Done()
			tab := make([]float32, ix.quant.M*ix.quant.KSub)
			scratch := make([]float32, ix.opts.Dim)
			for {
				pi := nextIdx()
				if pi < 0 {
					return
				}
				ix.listTable(query, probes[pi], coarseDists[pi], ipTab, tab, scratch)
				ix.scanList(probes[pi], coarseDists[pi], tab, local)
			}
		}(locals[t])
	}
	wg.Wait()
	return minheap.MergeLocal(k, locals)
}

// SizeBytes returns the index footprint: coarse centroids, codebooks,
// codes, IDs, and (when enabled) the precomputed tables.
func (ix *Index) SizeBytes() int64 {
	size := int64(len(ix.centroids))*4 + ix.quant.SizeBytes() + int64(len(ix.precomp))*4
	for i := range ix.listCodes {
		size += int64(len(ix.listCodes[i])) + int64(len(ix.listIDs[i]))*8
	}
	return size
}
