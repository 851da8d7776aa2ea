package hnsw

import (
	"math/rand"
	"testing"

	"vecstudy/internal/minheap"
	"vecstudy/internal/testutil"
)

func buildSmall(t *testing.T, opts Options) *Index {
	t.Helper()
	ds := testutil.SmallDataset(t)
	if opts.Dim == 0 {
		opts.Dim = ds.Dim
	}
	ix, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(ds.Base.Data, ds.N()); err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestNewValidationAndDefaults(t *testing.T) {
	if _, err := New(Options{Dim: 0}); err == nil {
		t.Error("accepted Dim=0")
	}
	if _, err := New(Options{Dim: 4, BNN: 1}); err == nil {
		t.Error("accepted BNN=1")
	}
	ix, err := New(Options{Dim: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ix.opts.BNN != 16 || ix.opts.EFB != 40 {
		t.Errorf("paper defaults not applied: %+v", ix.opts)
	}
}

func TestEmptySearch(t *testing.T) {
	ix, _ := New(Options{Dim: 4})
	if _, err := ix.Search(make([]float32, 4), 1, 10); err == nil {
		t.Error("search on empty index succeeded")
	}
}

func TestSearchRecall(t *testing.T) {
	ds := testutil.SmallDataset(t)
	ix := buildSmall(t, Options{BNN: 16, EFB: 40, Seed: 1})
	recall := testutil.Recall(t, ds, 10, func(q []float32) []minheap.Item {
		items, err := ix.Search(q, 10, 200)
		if err != nil {
			t.Fatal(err)
		}
		return items
	})
	if recall < 0.9 {
		t.Errorf("recall@10 with efs=200: %v, want >= 0.9", recall)
	}
}

func TestRecallImprovesWithEfs(t *testing.T) {
	ds := testutil.SmallDataset(t)
	ix := buildSmall(t, Options{Seed: 2})
	recallAt := func(efs int) float64 {
		return testutil.Recall(t, ds, 10, func(q []float32) []minheap.Item {
			items, _ := ix.Search(q, 10, efs)
			return items
		})
	}
	lo, hi := recallAt(10), recallAt(200)
	if hi < lo-0.02 {
		t.Errorf("recall did not improve with efs: %v -> %v", lo, hi)
	}
}

func TestSelfSearchFindsSelf(t *testing.T) {
	ds := testutil.SmallDataset(t)
	ix := buildSmall(t, Options{Seed: 3})
	misses := 0
	for i := 0; i < 50; i++ {
		items, err := ix.Search(ds.Base.Row(i), 1, 64)
		if err != nil {
			t.Fatal(err)
		}
		if items[0].Dist != 0 {
			misses++
		}
	}
	// HNSW is approximate, but self-queries should almost always hit.
	if misses > 2 {
		t.Errorf("%d/50 self-searches missed", misses)
	}
}

func TestResultsSortedAndTruncated(t *testing.T) {
	ds := testutil.SmallDataset(t)
	ix := buildSmall(t, Options{Seed: 4})
	items, err := ix.Search(ds.Queries.Row(0), 5, 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 5 {
		t.Fatalf("len = %d, want 5", len(items))
	}
	for i := 1; i < len(items); i++ {
		if items[i].Dist < items[i-1].Dist {
			t.Fatal("results not sorted")
		}
	}
}

func TestDegreeBounds(t *testing.T) {
	ix := buildSmall(t, Options{BNN: 8, Seed: 5})
	for i, node := range ix.links {
		for l, list := range node {
			limit := 8
			if l == 0 {
				limit = 16
			}
			if len(list) > limit {
				t.Fatalf("vertex %d level %d has %d links (limit %d)", i, l, len(list), limit)
			}
			for _, nb := range list {
				if nb == int32(i) {
					t.Fatalf("vertex %d has a self-link at level %d", i, l)
				}
				if int(nb) >= ix.N() {
					t.Fatalf("vertex %d links to nonexistent %d", i, nb)
				}
			}
		}
	}
}

func TestLevelDistribution(t *testing.T) {
	ix := buildSmall(t, Options{Seed: 6})
	perLevel := make([]int, ix.maxLevel+1) // vertices whose top level is l
	degSum := 0
	for i, l := range ix.levels {
		perLevel[l]++
		degSum += len(ix.links[i][0])
	}
	if perLevel[0] == 0 {
		t.Fatal("no vertices at level 0")
	}
	// Levels must decay roughly geometrically: level l+1 strictly smaller
	// populations than level l (allowing noise at the sparse top).
	if len(perLevel) > 1 && perLevel[1] >= perLevel[0] {
		t.Errorf("level populations not decaying: %v", perLevel)
	}
	if avg := float64(degSum) / float64(len(ix.levels)); avg <= 1 {
		t.Errorf("average degree %v too low", avg)
	}
}

func TestGraphConnectivity(t *testing.T) {
	// Every vertex must be reachable from the entry point at level 0;
	// otherwise some vectors can never be returned.
	ix := buildSmall(t, Options{Seed: 7})
	n := ix.N()
	seen := make([]bool, n)
	queue := []int32{ix.entryPoint}
	seen[ix.entryPoint] = true
	count := 0
	for len(queue) > 0 {
		v := queue[len(queue)-1]
		queue = queue[:len(queue)-1]
		count++
		for _, nb := range ix.links[v][0] {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	if count < n*99/100 {
		t.Errorf("only %d/%d vertices reachable at level 0", count, n)
	}
}

func TestSizeBytes(t *testing.T) {
	ds := testutil.SmallDataset(t)
	ix := buildSmall(t, Options{Seed: 9})
	min := ds.Base.Bytes() // must at least store the vectors
	if got := ix.SizeBytes(); got <= min {
		t.Errorf("SizeBytes = %d, want > %d", got, min)
	}
	// Faiss-style accounting: neighbor storage is ~4 bytes/slot; the
	// index must be well under 2× the raw vectors at bnn=16, d=128.
	if got := ix.SizeBytes(); got > 2*min {
		t.Errorf("SizeBytes = %d suspiciously large (raw %d)", got, min)
	}
}

func TestAddValidation(t *testing.T) {
	ix, _ := New(Options{Dim: 4})
	if err := ix.Add(make([]float32, 7), 2); err == nil {
		t.Error("accepted mismatched data length")
	}
}

func TestSearchDimValidation(t *testing.T) {
	ix := buildSmall(t, Options{Seed: 10})
	if _, err := ix.Search(make([]float32, 2), 1, 10); err == nil {
		t.Error("accepted wrong-dimension query")
	}
}

// TestSearchRejectsNonPositiveK: k <= 0 is an error, as on every other
// index, never a panic out of the result heap or a negative slice bound.
func TestSearchRejectsNonPositiveK(t *testing.T) {
	ix := buildSmall(t, Options{Seed: 11})
	q := testutil.SmallDataset(t).Queries.Row(0)
	for _, tc := range []struct{ k, efs int }{{0, 0}, {0, 40}, {-1, 40}, {-5, 0}} {
		if items, err := ix.Search(q, tc.k, tc.efs); err == nil {
			t.Errorf("Search(k=%d, efs=%d) = %v, want an error", tc.k, tc.efs, items)
		}
	}
}

// searchAllocCeiling is the allocation count of one Search at 8,000 ×
// 128 rows, bnn 16, efb 40, efs 40 (9 when each search made its own
// queues): the walk's queues and buffers live in the index, so a search
// allocates only the rows it returns.
const searchAllocCeiling = 1

func TestSearchAllocBudget(t *testing.T) {
	if testutil.Race {
		t.Skip("the race runtime allocates on its own")
	}
	if testing.Short() {
		t.Skip("builds an 8,000-row graph")
	}
	const n, dim = 8000, 128
	rng := rand.New(rand.NewSource(41))
	data := make([]float32, (n+100)*dim)
	for i := range data {
		data[i] = float32(rng.NormFloat64())
	}
	ix, err := New(Options{Dim: dim, BNN: 16, EFB: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(data[:n*dim], n); err != nil {
		t.Fatal(err)
	}
	queries := data[n*dim:]
	i := 0
	allocs := testing.AllocsPerRun(100, func() {
		q := queries[(i%100)*dim : (i%100+1)*dim]
		if _, err := ix.Search(q, 10, 40); err != nil {
			t.Fatal(err)
		}
		i++
	})
	t.Logf("%.0f allocations per search", allocs)
	if allocs > searchAllocCeiling {
		t.Errorf("%.0f allocations per search, ceiling %d", allocs, searchAllocCeiling)
	}
}
