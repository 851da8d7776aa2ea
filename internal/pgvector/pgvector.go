// Package pgvector implements a second, deliberately simpler generalized
// IVF_FLAT access method, standing in for the other PostgreSQL vector
// extensions the paper's Fig 2 compares against PASE. It reuses the PASE
// on-page bucket structure but ranks candidates the way the early
// pgvector releases did: materialize every candidate from the probed
// buckets, comparison-sort the whole list, and return the first k — plus
// it re-fetches each returned tuple's vector from the heap to re-evaluate
// the ORDER BY expression, as the generic executor path does.
//
// Fig 2's point is only that PASE is the fastest open generalized vector
// database; this sibling reproduces that ordering on the same substrate.
package pgvector

import (
	"fmt"
	"sort"

	paseivf "vecstudy/internal/pase/ivfflat"
	"vecstudy/internal/pg/am"
	"vecstudy/internal/pg/heap"
)

func init() {
	am.Register("pgv_ivfflat", Build)
}

var _ am.Index = (*Index)(nil)

// Index is the PASE bucket structure (whose Insert, Delete, DeadCount,
// Maintain and SizeBytes it keeps) with the slower ranking strategy.
type Index struct {
	*paseivf.Index
	ctx *am.BuildContext
}

// Build constructs the underlying IVF structure (same options as the PASE
// ivfflat AM).
func Build(ctx *am.BuildContext) (am.Index, error) {
	inner, err := paseivf.Build(ctx)
	if err != nil {
		return nil, err
	}
	return &Index{Index: inner.(*paseivf.Index), ctx: ctx}, nil
}

// AM implements am.Index.
func (ix *Index) AM() string { return "pgv_ivfflat" }

// Scan implements am.Index, query by query. A filtered query delegates
// to the underlying PASE bucket structure's in-traversal scan: the
// predicate gates candidates inside the bucket walk, which is the
// behaviour the extension family grew after its early releases.
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

// scanOne answers one query. Unfiltered, it is the early-pgvector
// ranking: full candidate materialization plus comparison sort, then a
// heap re-fetch per returned row.
func (ix *Index) scanOne(query am.Query, opts *am.ScanOpts) ([]am.Result, error) {
	q, k := query.Vec, query.K
	if query.Pred != nil {
		out, err := ix.Index.Scan([]am.Query{query}, opts)
		if err != nil {
			return nil, err
		}
		return out[0], nil
	}
	if err := ix.Index.CheckQuery(q, k); err != nil {
		return nil, err
	}
	kern := opts.Kernel
	type cand struct {
		tid  heap.TID
		dist float32
	}
	cands := make([]cand, 0, 4096)
	err := ix.Index.ScanProbes(kern, q, opts.NProbe, func(tid heap.TID, dist float32) {
		cands = append(cands, cand{tid: tid, dist: dist})
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].dist < cands[j].dist })
	out := make([]am.Result, 0, k)
	for i := 0; i < len(cands) && len(out) < k; i++ {
		// Re-evaluate the ORDER BY expression against the heap tuple, as
		// the generic executor re-check does. The visibility check doubles
		// as the executor's tuple re-check: a candidate whose heap tuple
		// died since the index entry was written is skipped and the next
		// sorted candidate takes its slot.
		v, ok, err := ix.ctx.Table.GetVectorVisible(cands[i].tid, ix.ctx.VecCol)
		if err != nil {
			return nil, fmt.Errorf("pgvector: re-fetch %v: %w", cands[i].tid, err)
		}
		if !ok {
			continue
		}
		out = append(out, am.Result{TID: cands[i].tid, Dist: kern.L2Sqr(q, v)})
	}
	return out, nil
}
