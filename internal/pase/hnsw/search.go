package hnsw

import (
	"errors"
	"fmt"

	"vecstudy/internal/pg/am"
)

// Scan implements am.Index, reading efs (search queue length) and the
// kernel from opts. Graph traversal is inherently per-query — each
// query's entry descent and layer-0 beam depend on its own frontier, so
// there is no SGEMM-shaped batching to exploit — and a batch is answered
// query by query. Coalescing still pays off at the serving layer: the
// batch executes back-to-back on one goroutine over a warm buffer pool
// instead of interleaving with unrelated work. Neither PASE nor Faiss
// parallelizes a single HNSW query (paper Sec VII-D), so opts.Threads is
// not read.
func (ix *Index) Scan(queries []am.Query, opts *am.ScanOpts) ([][]am.Result, error) {
	if opts == nil {
		opts = am.DefaultScanOpts()
	}
	return am.ScanEach(queries, func(q am.Query) ([]am.Result, error) { return ix.scanOne(q, opts) })
}

// Search implements am.Index's compat shim.
func (ix *Index) Search(query []float32, k int, params map[string]string) ([]am.Result, error) {
	return am.SearchCompat(ix, query, k, params)
}

// scanOne answers one query: the greedy descent through the upper levels
// is unfiltered (it only positions the entry point), and the level-0 beam
// search explores the graph normally but admits only vertices satisfying
// q.Pred into its result heap, so filtered-out tuples never surface.
func (ix *Index) scanOne(q am.Query, opts *am.ScanOpts) ([]am.Result, error) {
	if len(q.Vec) != int(ix.meta.Dim) {
		return nil, fmt.Errorf("pase/hnsw: query dimension %d != %d", len(q.Vec), ix.meta.Dim)
	}
	if q.K <= 0 {
		return nil, errors.New("pase/hnsw: k must be positive")
	}
	if !ix.meta.Entry.Valid() {
		// Either never populated, or every vertex was deleted and
		// Maintain unlinked the entry point: zero rows, not an error.
		return nil, nil
	}
	kern := opts.Kernel
	ep := ix.meta.Entry
	epDist, err := ix.distTo(kern, q.Vec, ep)
	if err != nil {
		return nil, err
	}
	for lev := ix.meta.MaxLevel; lev > 0; lev-- {
		ep, epDist, err = ix.greedyClosest(kern, q.Vec, ep, epDist, uint16(lev))
		if err != nil {
			return nil, err
		}
	}
	cands, err := ix.searchLayer(kern, q.Vec, ep, epDist, max(opts.EFS, q.K), 0, q.Pred)
	if err != nil {
		return nil, err
	}
	if len(cands) > q.K {
		cands = cands[:q.K]
	}
	out := make([]am.Result, len(cands))
	for i, c := range cands {
		tid, err := ix.tidOf(c.vid)
		if err != nil {
			return nil, err
		}
		out[i] = am.Result{TID: tid, Dist: c.dist}
	}
	return out, nil
}
