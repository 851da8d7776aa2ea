package ivf

import (
	"slices"

	"vecstudy/internal/pg/am"
)

// scanBatch executes a batch of queries as one multi-query probe.
// Each query ranks the centroids through selectProbes, as a solo scan
// does, and each probed bucket's page chain is walked once for every
// query probing it — kept pinned as one segment unless a subscriber
// carries a predicate (see scanner.bucket) — so page pins and tuple
// accesses are amortized across the batch instead of repeated per query.
//
// Results are byte-identical to per-query scans under every kernel (a
// batch never mixes kernels — it runs under one ScanOpts):
//
//   - probe lists come from the solo selectProbes, so they match exactly;
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
	subs := make(map[int32][]sub)
	sinks := make([]*sink, len(queries))
	for qi, q := range queries {
		ps := ix.selectProbes(o.kern, q.Vec, o.nprobe)
		for rank, cid := range ps {
			subs[cid] = append(subs[cid], sub{qi, rank})
		}
		sinks[qi] = newSink(q.K, o, q.Pred != nil, len(ps))
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
