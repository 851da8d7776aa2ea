package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"vecstudy/internal/dataset"
)

// RunSearch runs every query of the dataset through the index and
// reports mean latency and recall@k. Ground truth must already be
// computed when recall is wanted (otherwise Recall is -1).
func RunSearch(ix Index, ds *dataset.Dataset, k int) (SearchResult, error) {
	res := SearchResult{Engine: ix.Engine(), Kind: ix.Kind(), NQ: ds.NQ(), Recall: -1}
	results := make([][]int64, ds.NQ())
	start := time.Now()
	for q := 0; q < ds.NQ(); q++ {
		ids, err := ix.Search(ds.Queries.Row(q), k)
		if err != nil {
			return res, fmt.Errorf("core: query %d: %w", q, err)
		}
		results[q] = ids
	}
	res.Total = time.Since(start)
	res.AvgLatency = res.Total / time.Duration(ds.NQ())
	if len(ds.GroundTruth) > 0 {
		res.Recall = ds.Recall(results, k)
	}
	return res, nil
}

// WarmUp runs a handful of queries without measuring, so the paper's
// methodology (warm caches, then average) is honoured.
func WarmUp(ix Index, ds *dataset.Dataset, k, n int) error {
	if n > ds.NQ() {
		n = ds.NQ()
	}
	for q := 0; q < n; q++ {
		if _, err := ix.Search(ds.Queries.Row(q), k); err != nil {
			return err
		}
	}
	return nil
}

// ConcurrentResult reports a multi-client search workload: the
// inter-query scaling numbers the paper never measures (its experiments
// are all single-query), and the metric that the buffer-pool
// partitioning exists to improve.
type ConcurrentResult struct {
	Clients int
	Queries int // total across all clients
	Wall    time.Duration
	QPS     float64
	P50     time.Duration
	P99     time.Duration
}

// RunConcurrent drives an arbitrary per-request operation from clients
// goroutines, each issuing perClient sequential requests, and reports
// aggregate QPS plus per-request latency percentiles. op(c, i) runs
// request i of client c.
func RunConcurrent(clients, perClient int, op func(c, i int) error) (ConcurrentResult, error) {
	res := ConcurrentResult{Clients: clients, Queries: clients * perClient}
	if clients < 1 || perClient < 1 {
		return res, fmt.Errorf("core: concurrent run needs clients and queries >= 1")
	}
	lats := make([][]time.Duration, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			own := make([]time.Duration, 0, perClient)
			for i := 0; i < perClient; i++ {
				t0 := time.Now()
				if err := op(c, i); err != nil {
					errs[c] = fmt.Errorf("core: client %d request %d: %w", c, i, err)
					return
				}
				own = append(own, time.Since(t0))
			}
			lats[c] = own
		}(c)
	}
	wg.Wait()
	res.Wall = time.Since(start)
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	all := make([]time.Duration, 0, res.Queries)
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	res.QPS = float64(len(all)) / res.Wall.Seconds()
	res.P50 = percentile(all, 0.50)
	res.P99 = percentile(all, 0.99)
	return res, nil
}

// percentile returns the p-quantile of sorted latencies by nearest rank:
// the ⌈p·n⌉-th smallest sample, so p99 of ten samples is the maximum.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Comparison pairs the two engines' results for one experiment cell.
type Comparison struct {
	Dataset     string
	Kind        IndexKind
	Specialized BuildResult
	Generalized BuildResult
	SpecSearch  SearchResult
	GenSearch   SearchResult
}

// BuildGapX returns how many times slower the generalized build was.
func (c Comparison) BuildGapX() float64 { return Gap(c.Specialized.Total, c.Generalized.Total) }

// SearchGapX returns how many times slower the generalized search was.
func (c Comparison) SearchGapX() float64 { return Gap(c.SpecSearch.Total, c.GenSearch.Total) }

// SizeGapX returns how many times larger the generalized index was.
func (c Comparison) SizeGapX() float64 {
	if c.Specialized.SizeBytes <= 0 {
		return 0
	}
	return float64(c.Generalized.SizeBytes) / float64(c.Specialized.SizeBytes)
}

// CompareBoth builds the same index kind in both engines, runs the same
// search workload, and returns the paired results. This one call is the
// spine of Figs 3, 5, 7, 11–14, 16, 17.
func CompareBoth(kind IndexKind, ds *dataset.Dataset, p Params) (Comparison, error) {
	cmp := Comparison{Dataset: ds.Name, Kind: kind}

	spec, sb, err := BuildSpecialized(kind, ds, p)
	if err != nil {
		return cmp, fmt.Errorf("core: specialized build: %w", err)
	}
	defer spec.Close()
	cmp.Specialized = sb

	gen, gb, err := BuildGeneralized(kind, ds, p)
	if err != nil {
		return cmp, fmt.Errorf("core: generalized build: %w", err)
	}
	defer gen.Close()
	cmp.Generalized = gb

	if err := WarmUp(spec, ds, p.K, 4); err != nil {
		return cmp, err
	}
	if cmp.SpecSearch, err = RunSearch(spec, ds, p.K); err != nil {
		return cmp, err
	}
	if err := WarmUp(gen, ds, p.K, 4); err != nil {
		return cmp, err
	}
	if cmp.GenSearch, err = RunSearch(gen, ds, p.K); err != nil {
		return cmp, err
	}
	return cmp, nil
}
