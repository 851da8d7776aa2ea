package ivf

import (
	"slices"

	"vecstudy/internal/pg/am"
	"vecstudy/internal/vec"
)

// scanBatch executes a batch of queries as one multi-query probe.
// Centroid scoring for the whole batch is a single SGEMM-shaped kernel
// L2SqrNT call (paper RC#1 applied to serving), and each probed bucket's
// page chain is walked once for every query probing it — kept pinned as
// one segment unless a subscriber carries a predicate (see
// scanner.bucket) — so page pins and tuple accesses are amortized across
// the batch instead of repeated per query.
//
// Results are byte-identical to per-query scans under every kernel (a
// batch never mixes kernels — it runs under one ScanOpts):
//
//   - every kernel's L2SqrNT is bit-equal, pair by pair, to the solo
//     L2Sqr that selectProbes uses (the kernelparity contract), and both
//     rank through nearestProbes, so probe lists match exactly;
//   - a codec's Score is a pure function of (payload, query) per pair —
//     batch composition never moves a bit — so the shared walk hands each
//     query exactly the distances its solo scan computes;
//   - bounded-heap sinks keep the k smallest under the (Dist, ID) total
//     order whatever the push order, and the size-n collector (RC#6),
//     whose ties do depend on push order, is fed per (query, probe-rank)
//     recordings replayed in each query's own probe order.
func (ix *Index) scanBatch(o scanOpts, queries []am.Query) ([][]am.Result, error) {
	// Invert the probe lists into per-bucket subscriber lists and scan
	// the bucket union once, in ascending bucket order.
	probes := ix.multiSelectProbes(o.kern, queries, o.nprobe)
	subs := make(map[int32][]sub)
	sinks := make([]*sink, len(queries))
	for qi, ps := range probes {
		for rank, cid := range ps {
			subs[cid] = append(subs[cid], sub{qi, rank})
		}
		sinks[qi] = newSink(queries[qi].K, o, queries[qi].Pred != nil, len(ps))
	}
	order := make([]int32, 0, len(subs))
	for cid := range subs {
		order = append(order, cid)
	}
	slices.Sort(order)

	s := ix.newScanner(o, queries, sinks)
	for _, cid := range order {
		if err := s.bucket(cid, subs[cid], false); err != nil {
			return nil, err
		}
	}
	out := make([][]am.Result, len(queries))
	for i, q := range queries {
		var err error
		if out[i], err = ix.finish(o, q.Vec, q.K, sinks[i]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// multiSelectProbes ranks all centroids against the whole batch with one
// batched scoring call and returns each query's nprobe nearest bucket
// IDs — the same lists selectProbes produces.
func (ix *Index) multiSelectProbes(kern vec.Kernel, queries []am.Query, nprobe int) [][]int32 {
	d := int(ix.meta.Dim)
	nlist := int(ix.meta.NList)
	B := len(queries)
	flat := make([]float32, B*d)
	for i, q := range queries {
		copy(flat[i*d:(i+1)*d], q.Vec)
	}
	dists := make([]float32, B*nlist)
	vec.NTParallel(kern, flat, B, d, ix.centroids[:nlist*d], nlist, dists, 0)
	out := make([][]int32, B)
	for i := range out {
		out[i] = nearestProbes(dists[i*nlist:(i+1)*nlist], nprobe)
	}
	return out
}
