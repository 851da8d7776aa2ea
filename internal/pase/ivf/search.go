package ivf

import (
	"slices"

	"vecstudy/internal/minheap"
	"vecstudy/internal/pase"
	"vecstudy/internal/pg/am"
	"vecstudy/internal/pg/heap"
	"vecstudy/internal/vec"
)

// scanOpts are one Scan call's knobs as this index runs them.
type scanOpts struct {
	nprobe  int  // clamped to [1, nlist]
	threads int  // > 1 selects the RC#3 shared-heap scan
	beta    int  // re-rank over-fetch factor; 0 when the codec does not re-rank
	heapK   bool // bounded size-k heap; false is RC#6's size-n collector
	kern    vec.Kernel
}

// scanOpts fits the session's options to this index: nprobe is clamped
// to [1, nlist]; a re-ranking codec takes β (< 1 → 1) and always scans
// serially, any other codec takes threads. nil means the defaults.
func (ix *Index) scanOpts(opts *am.ScanOpts) scanOpts {
	if opts == nil {
		opts = am.DefaultScanOpts()
	}
	o := scanOpts{nprobe: ix.clampProbes(opts.NProbe), threads: 1, heapK: opts.HeapK, kern: opts.Kernel}
	if ix.codec.Rerank() {
		o.beta = max(opts.Rerank, 1)
	} else {
		o.threads = opts.Threads
	}
	return o
}

func (ix *Index) clampProbes(nprobe int) int {
	return min(max(nprobe, 1), int(ix.meta.NList))
}

// sink is one query's candidate collector — the paper's top-k policy
// switch. Exactly one of its fields is set.
type sink struct {
	// top is a bounded heap under the (Dist, ID) total order, so it is
	// indifferent to push order: the heap=k ablation, filtered scans, the
	// re-rank pre-selection, and (as a SharedTopK) the RC#3 parallel scan.
	top interface {
		Push(id int64, dist float32) bool
		Results() []minheap.Item
	}
	// collector is PASE's size-n collector (RC#6), whose PopK breaks
	// distance ties by push order. A solo scan visits buckets in probe-rank
	// order and pushes straight into it; a multi-query scan interleaves
	// buckets, so it records candidates per probe rank in ranks and replays
	// them in rank order — the solo push sequence.
	collector *minheap.Collector
	ranks     [][]minheap.Item
	// emit streams candidates to a ScanProbes caller.
	emit func(heap.TID, float32)
}

func newSink(k int, o scanOpts, gated bool, nranks int) *sink {
	switch {
	case o.beta > 0:
		return &sink{top: minheap.NewTopK(k * o.beta)}
	case gated || o.heapK:
		return &sink{top: minheap.NewTopK(k)}
	}
	if nranks == 1 {
		return &sink{collector: minheap.NewCollector(1024)}
	}
	return &sink{ranks: make([][]minheap.Item, nranks)}
}

// push offers a scored segment's candidates. The segment arrives
// reversed (see scanner.segment), so it is pushed last to first — chain
// order, the order the size-n collector's tie-breaking is defined on.
// entries[t]'s distance to the subscriber at column off is
// dists[t*stride+off]. TIDs are decoded here, after scoring, off cache
// lines the kernel has just pulled in.
func (s *sink) push(rank int, entries [][]byte, dists []float32, off, stride int) {
	dists = dists[off:]
	switch {
	case s.top != nil:
		for t := len(entries) - 1; t >= 0; t-- {
			s.top.Push(entryID(entries[t]), dists[t*stride])
		}
	case s.emit != nil:
		for t := len(entries) - 1; t >= 0; t-- {
			s.emit(heap.UnpackTID(entries[t]), dists[t*stride])
		}
	case s.collector != nil:
		for t := len(entries) - 1; t >= 0; t-- {
			s.collector.Push(entryID(entries[t]), dists[t*stride])
		}
	default:
		lst := s.ranks[rank]
		if lst == nil {
			lst = make([]minheap.Item, 0, len(entries))
		}
		for t := len(entries) - 1; t >= 0; t-- {
			lst = append(lst, minheap.Item{ID: entryID(entries[t]), Dist: dists[t*stride]})
		}
		s.ranks[rank] = lst
	}
}

// results returns the k best candidates, ascending.
func (s *sink) results(k int) []minheap.Item {
	if s.top != nil {
		return s.top.Results()
	}
	if s.collector == nil {
		total := 0
		for _, lst := range s.ranks {
			total += len(lst)
		}
		s.collector = minheap.NewCollector(total)
		for _, lst := range s.ranks {
			s.collector.Append(lst)
		}
	}
	return s.collector.PopK(k)
}

// sub is one query's subscription to a bucket: its index in the batch
// and the bucket's rank in that query's probe list.
type sub struct{ qi, rank int }

// scanner scores bucket chains for a batch of queries and routes every
// candidate to its query's sink. It is single-goroutine state: parallel
// scans give each worker its own.
type scanner struct {
	ix      *Index
	sc      Scorer
	queries []am.Query
	sinks   []*sink
	visit   func(entries [][]byte) error // s.segment, bound once

	walk    chainWalk
	dists   []float32
	qs      []int // every subscriber of the current bucket
	plain   []sub // its subscribers without a predicate...
	plainQs []int // ...and their batch indexes
	gated   []sub
	one     [1]int
}

func (ix *Index) newScanner(o scanOpts, queries []am.Query, sinks []*sink) *scanner {
	s := &scanner{
		ix: ix, queries: queries, sinks: sinks,
		sc: ix.codec.NewScorer(o.kern, queries),
	}
	s.visit = s.segment
	return s
}

// bucket scans bucket cid once for all of its subscribers. A predicate
// resolves heap tuples through the same buffer pool, so it must never run
// under a segment's worth of pins (a flush caused by pool exhaustion
// would leave it no frame to pin): a bucket with a filtered subscriber is
// walked page at a time whatever the caller asked for, which is exactly
// what the predicate sees in a solo filtered scan.
func (s *scanner) bucket(cid int32, subs []sub, perPage bool) error {
	s.qs, s.plain, s.plainQs, s.gated = s.qs[:0], s.plain[:0], s.plainQs[:0], s.gated[:0]
	for _, sb := range subs {
		s.qs = append(s.qs, sb.qi)
		if s.queries[sb.qi].Pred != nil {
			s.gated = append(s.gated, sb)
		} else {
			s.plain = append(s.plain, sb)
			s.plainQs = append(s.plainQs, sb.qi)
		}
	}
	s.sc.Bucket(s.ix.centroid(int(cid)), s.qs)
	return s.ix.walk(cid, &s.walk, perPage || len(s.gated) > 0, s.visit)
}

// segment scores one walker segment. It first reverses the segment in
// place: AddItem fills a page from its end downward, so chain order is
// descending address order, and the reverse hands the kernels ascending
// addresses — the direction the hardware prefetcher streams. Without it
// per-page scoring is slower than the per-tuple loop it replaced on
// mixed read/write load (EXPERIMENTS.md, "Served-stack benchmark: PR 14").
// Score is a pure function of each (entry, query) pair, so the order
// moves no bit, and push restores chain order.
//
// The unfiltered subscribers share a single codec call over the whole
// segment; a filtered subscriber's predicate gates entries before they
// are scored (in-traversal filtering), so non-matching entries cost no
// kernel work and never reach the result heap.
func (s *scanner) segment(entries [][]byte) error {
	slices.Reverse(entries)
	if n := len(s.plain); n > 0 {
		dists := s.score(entries, s.plainQs, false)
		for si, sb := range s.plain {
			s.sinks[sb.qi].push(sb.rank, entries, dists, si, n)
		}
	}
	w := &s.walk
	for _, sb := range s.gated {
		w.kept = w.kept[:0]
		for _, e := range entries {
			ok, err := s.queries[sb.qi].Pred(heap.UnpackTID(e))
			if err != nil {
				return err
			}
			if ok {
				w.kept = append(w.kept, e)
			}
		}
		if len(w.kept) == 0 {
			continue
		}
		s.one[0] = sb.qi
		dists := s.score(w.kept, s.one[:], true)
		s.sinks[sb.qi].push(sb.rank, w.kept, dists, 0, 1)
	}
	return nil
}

// score runs the codec over the entries.
func (s *scanner) score(entries [][]byte, qs []int, sparse bool) []float32 {
	n := len(entries) * len(qs)
	if cap(s.dists) < n {
		s.dists = make([]float32, n)
	}
	dists := s.dists[:n]
	s.sc.Score(entries, qs, sparse, dists)
	return dists
}

// Scan implements am.Index. The shape of the walk is a choice from the
// input size, never an option:
//
//   - one query is the paper's solo scan — each probed bucket's chain
//     walked page at a time in probe-rank order (RC#2), candidates pushed
//     straight into a size-k heap (under heap = n, a size-n collector —
//     RC#6) or, with threads > 1, buckets spread over workers that share
//     one lock-guarded heap (RC#3), as the paper describes PASE doing;
//   - several queries are one multi-query probe (scanBatch), unless
//     threads > 1: the shared-heap path owns the worker pool, so such a
//     batch is answered query by query.
//
// A query's predicate is applied inside the bucket scans — the
// in-traversal strategy of filtered kNN — and its scan is serial (the
// callback resolves heap tuples and is not synchronized).
func (ix *Index) Scan(queries []am.Query, opts *am.ScanOpts) ([][]am.Result, error) {
	for _, q := range queries {
		if err := ix.CheckQuery(q.Vec, q.K); err != nil {
			return nil, err
		}
	}
	o := ix.scanOpts(opts)
	if len(queries) > 1 && o.threads <= 1 {
		return ix.scanBatch(o, queries)
	}
	return am.ScanEach(queries, func(q am.Query) ([]am.Result, error) { return ix.scanOne(o, q) })
}

// Search implements am.Index's compat shim.
func (ix *Index) Search(query []float32, k int, params map[string]string) ([]am.Result, error) {
	return am.SearchCompat(ix, query, k, params)
}

// scanOne is the solo scan.
func (ix *Index) scanOne(o scanOpts, q am.Query) ([]am.Result, error) {
	query := []am.Query{q}
	probes := ix.selectProbes(o.kern, q.Vec, o.nprobe)
	var snk *sink
	var err error
	if o.threads > 1 && q.Pred == nil {
		snk = &sink{top: minheap.NewSharedTopK(q.K)}
		err = ix.scanParallel(o, query, probes, snk)
	} else {
		snk = newSink(q.K, o, q.Pred != nil, 1)
		err = ix.scanSerial(o, query, probes, snk)
	}
	if err != nil {
		return nil, err
	}
	return ix.finish(o, q.Vec, q.K, snk)
}

// ScanProbes selects the nprobe buckets nearest to query and streams
// every (tid, distance) candidate to emit, in probe-rank then chain
// order, scoring through kern. It exposes the bucket-scan machinery to
// sibling access methods (the pgvector-style baseline builds the same
// structure but ranks candidates differently).
func (ix *Index) ScanProbes(kern vec.Kernel, query []float32, nprobe int, emit func(heap.TID, float32)) error {
	if err := ix.checkDim("query", query); err != nil {
		return err
	}
	probes := ix.selectProbes(kern, query, ix.clampProbes(nprobe))
	return ix.scanSerial(scanOpts{kern: kern}, []am.Query{{Vec: query}}, probes, &sink{emit: emit})
}

// scanSerial walks each probed bucket's page chain, one page pinned at a
// time, in probe-rank order — so a single rank list already holds the
// candidates in push order.
func (ix *Index) scanSerial(o scanOpts, query []am.Query, probes []int32, snk *sink) error {
	s := ix.newScanner(o, query, []*sink{snk})
	for _, cid := range probes {
		if err := s.bucket(cid, []sub{{}}, true); err != nil {
			return err
		}
	}
	return nil
}

// scanParallel distributes probed buckets over the shared worker pool;
// every worker pushes into the sink's single mutex-guarded heap — PASE's
// strategy in Fig 18, which is why it fails to scale. Each worker has
// its own scanner (walk scratch, and for IVF_PQ the RC#7 table).
func (ix *Index) scanParallel(o scanOpts, query []am.Query, probes []int32, snk *sink) error {
	return pase.ScanProbesParallel(probes, o.threads, func() func(int32) error {
		s := ix.newScanner(o, query, []*sink{snk})
		return func(cid int32) error { return s.bucket(cid, []sub{{}}, true) }
	})
}

// finish ranks a query's collected candidates and, for a re-ranking
// codec, re-scores the survivors at full precision.
func (ix *Index) finish(o scanOpts, query []float32, k int, snk *sink) ([]am.Result, error) {
	items := snk.results(k)
	if o.beta > 0 {
		var err error
		if items, err = ix.rerank(o, query, k, items); err != nil {
			return nil, err
		}
	}
	out := make([]am.Result, len(items))
	for i, it := range items {
		out[i] = am.Result{TID: unpackTID(it.ID), Dist: it.Dist}
	}
	return out, nil
}

// rerank re-fetches every approximate candidate's full-precision vector
// from the heap and ranks the exact distances in a TopK(k). The
// visibility check doubles as the executor's re-check: a candidate whose
// heap tuple died since its entry was written is skipped.
func (ix *Index) rerank(o scanOpts, query []float32, k int, cands []minheap.Item) ([]minheap.Item, error) {
	top := minheap.NewTopK(k)
	for _, it := range cands {
		tid := unpackTID(it.ID)
		v, ok, err := ix.ctx.Table.GetVectorVisible(tid, ix.ctx.VecCol)
		if err != nil {
			return nil, ix.errorf("re-rank fetch %v: %w", tid, err)
		}
		if ok {
			top.Push(it.ID, o.kern.L2Sqr(query, v))
		}
	}
	return top.Results(), nil
}

// selectProbes ranks all centroids by distance (kernel calls over the
// centroid cache) and returns the nprobe nearest bucket IDs.
func (ix *Index) selectProbes(kern vec.Kernel, query []float32, nprobe int) []int32 {
	nlist := int(ix.meta.NList)
	dists := make([]float32, nlist)
	for c := range dists {
		dists[c] = kern.L2Sqr(query, ix.centroid(c))
	}
	return nearestProbes(dists, nprobe)
}

// nearestProbes returns the indexes of the nprobe smallest distances,
// ascending; pushes run in ascending bucket order on every path, so solo
// and batched probe lists agree exactly.
func nearestProbes(dists []float32, nprobe int) []int32 {
	h := minheap.NewTopK(nprobe)
	for c, dist := range dists {
		h.Push(int64(c), dist)
	}
	items := h.Results()
	out := make([]int32, len(items))
	for i, it := range items {
		out[i] = int32(it.ID)
	}
	return out
}
