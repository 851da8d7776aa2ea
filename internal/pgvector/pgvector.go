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

	"vecstudy/internal/pase"
	paseivf "vecstudy/internal/pase/ivfflat"
	"vecstudy/internal/pg/am"
	"vecstudy/internal/pg/heap"
)

func init() {
	am.Register("pgv_ivfflat", Build)
}

// Index wraps the PASE bucket structure with the slower ranking strategy.
type Index struct {
	inner *paseivf.Index
	ctx   *am.BuildContext
}

// Build constructs the underlying IVF structure (same options as the PASE
// ivfflat AM).
func Build(ctx *am.BuildContext) (am.Index, error) {
	inner, err := paseivf.Build(ctx)
	if err != nil {
		return nil, err
	}
	return &Index{inner: inner.(*paseivf.Index), ctx: ctx}, nil
}

// AM implements am.Index.
func (ix *Index) AM() string { return "pgv_ivfflat" }

// Insert implements am.Index.
func (ix *Index) Insert(v []float32, tid heap.TID) error { return ix.inner.Insert(v, tid) }

// SizeBytes implements am.Index.
func (ix *Index) SizeBytes() (int64, error) { return ix.inner.SizeBytes() }

// SearchFiltered implements am.FilteredIndex by delegating to the
// underlying PASE bucket structure's in-traversal scan: the predicate
// gates candidates inside the bucket walk, which is the behaviour the
// extension family grew after its early releases.
func (ix *Index) SearchFiltered(query []float32, k int, params map[string]string, pred am.Predicate) ([]am.Result, error) {
	if pred == nil {
		return ix.Search(query, k, params)
	}
	return ix.inner.SearchFiltered(query, k, params, pred)
}

// Search implements am.Index: full candidate materialization plus
// comparison sort, then a heap re-fetch per returned row.
func (ix *Index) Search(query []float32, k int, params map[string]string) ([]am.Result, error) {
	if err := ix.inner.CheckQuery(query, k); err != nil {
		return nil, err
	}
	nprobe, err := pase.OptInt(params, "nprobe", 20)
	if err != nil {
		return nil, err
	}
	kern, err := pase.KernelOpt(params)
	if err != nil {
		return nil, err
	}
	type cand struct {
		tid  heap.TID
		dist float32
	}
	cands := make([]cand, 0, 4096)
	err = ix.inner.ScanProbes(kern, query, nprobe, func(tid heap.TID, dist float32) {
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
		out = append(out, am.Result{TID: cands[i].tid, Dist: kern.L2Sqr(query, v)})
	}
	return out, nil
}

// Delete implements am.MutableIndex by tombstoning the entry in the
// underlying bucket structure.
func (ix *Index) Delete(v []float32, tid heap.TID) (bool, error) { return ix.inner.Delete(v, tid) }

// DeadCount implements am.MutableIndex.
func (ix *Index) DeadCount() int64 { return ix.inner.DeadCount() }

// Maintain implements am.MutableIndex: IVF list compaction on the
// underlying chains.
func (ix *Index) Maintain() (int64, error) { return ix.inner.Maintain() }
