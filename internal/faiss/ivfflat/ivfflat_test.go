package ivfflat

import (
	"testing"

	"vecstudy/internal/kmeans"
	"vecstudy/internal/minheap"
	"vecstudy/internal/testutil"
)

func buildSmall(t *testing.T, opts Options) *Index {
	t.Helper()
	ds := testutil.SmallDataset(t)
	if opts.Dim == 0 {
		opts.Dim = ds.Dim
	}
	if opts.NList == 0 {
		opts.NList = ds.NumClusters()
	}
	ix, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := ix.Train(ds.Base.Data, ds.N()); err != nil {
		t.Fatal(err)
	}
	if err := ix.Add(ds.Base.Data, ds.N(), nil); err != nil {
		t.Fatal(err)
	}
	return ix
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Options{Dim: 0, NList: 4}); err == nil {
		t.Error("accepted Dim=0")
	}
	if _, err := New(Options{Dim: 4, NList: 0}); err == nil {
		t.Error("accepted NList=0")
	}
}

func TestLifecycleErrors(t *testing.T) {
	ix, _ := New(Options{Dim: 8, NList: 2})
	if err := ix.Add(make([]float32, 8), 1, nil); err == nil {
		t.Error("Add before Train succeeded")
	}
	if _, err := ix.Search(make([]float32, 8), 1, SearchParams{NProbe: 1}); err == nil {
		t.Error("Search before Train succeeded")
	}
}

func TestSearchRecall(t *testing.T) {
	ds := testutil.SmallDataset(t)
	ix := buildSmall(t, Options{UseGemm: true, Seed: 1})
	recall := testutil.Recall(t, ds, 10, func(q []float32) []minheap.Item {
		items, err := ix.Search(q, 10, SearchParams{NProbe: 10})
		if err != nil {
			t.Fatal(err)
		}
		return items
	})
	if recall < 0.85 {
		t.Errorf("recall@10 with nprobe=10: %v, want >= 0.85", recall)
	}
}

func TestSearchExhaustiveProbesIsExact(t *testing.T) {
	ds := testutil.SmallDataset(t)
	ix := buildSmall(t, Options{UseGemm: true, Seed: 2})
	recall := testutil.Recall(t, ds, 10, func(q []float32) []minheap.Item {
		items, err := ix.Search(q, 10, SearchParams{NProbe: ix.opts.NList})
		if err != nil {
			t.Fatal(err)
		}
		return items
	})
	if recall != 1 {
		t.Errorf("probing all lists must be exact; recall = %v", recall)
	}
}

func TestSearchResultsSortedAndK(t *testing.T) {
	ds := testutil.SmallDataset(t)
	ix := buildSmall(t, Options{Seed: 3})
	items, err := ix.Search(ds.Queries.Row(0), 7, SearchParams{NProbe: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 7 {
		t.Fatalf("got %d items, want 7", len(items))
	}
	for i := 1; i < len(items); i++ {
		if items[i].Dist < items[i-1].Dist {
			t.Fatal("results not sorted")
		}
	}
}

func TestParallelSearchMatchesSerial(t *testing.T) {
	ds := testutil.SmallDataset(t)
	ix := buildSmall(t, Options{UseGemm: true, Seed: 4})
	for q := 0; q < 5; q++ {
		serial, err := ix.Search(ds.Queries.Row(q), 10, SearchParams{NProbe: 8})
		if err != nil {
			t.Fatal(err)
		}
		par, err := ix.Search(ds.Queries.Row(q), 10, SearchParams{NProbe: 8, Threads: 4})
		if err != nil {
			t.Fatal(err)
		}
		if !testutil.SameResults(serial, par, 1e-4) {
			t.Fatalf("query %d: parallel diverged from serial", q)
		}
	}
}

func TestGemmToggleSameResults(t *testing.T) {
	ds := testutil.SmallDataset(t)
	a := buildSmall(t, Options{UseGemm: true, Seed: 5})
	b := buildSmall(t, Options{UseGemm: false, Seed: 5})
	for q := 0; q < 5; q++ {
		ra, _ := a.Search(ds.Queries.Row(q), 10, SearchParams{NProbe: a.opts.NList})
		rb, _ := b.Search(ds.Queries.Row(q), 10, SearchParams{NProbe: b.opts.NList})
		if !testutil.SameResults(ra, rb, 1e-3) {
			t.Fatalf("query %d: RC#1 toggle changed exhaustive results", q)
		}
	}
}

func TestStatsPhases(t *testing.T) {
	ix := buildSmall(t, Options{Seed: 6})
	st := ix.Stats()
	if st.TrainTime <= 0 || st.AddTime <= 0 {
		t.Errorf("phase timings not recorded: %+v", st)
	}
	if st.NAdded != testutil.SmallDataset(t).N() {
		t.Errorf("NAdded = %d", st.NAdded)
	}
}

func TestSizeBytes(t *testing.T) {
	ds := testutil.SmallDataset(t)
	ix := buildSmall(t, Options{Seed: 7})
	// vectors (n·d·4) + ids (n·8) + centroids (c·d·4)
	want := int64(ds.N())*int64(ds.Dim)*4 + int64(ds.N())*8 + int64(ix.opts.NList)*int64(ds.Dim)*4
	if got := ix.SizeBytes(); got != want {
		t.Errorf("SizeBytes = %d, want %d", got, want)
	}
}

func TestListSizesSumToN(t *testing.T) {
	ds := testutil.SmallDataset(t)
	ix := buildSmall(t, Options{Seed: 8})
	total := 0
	for _, ids := range ix.listIDs {
		total += len(ids)
	}
	if total != ds.N() {
		t.Errorf("list sizes sum to %d, want %d", total, ds.N())
	}
}

func TestFaissStarInjection(t *testing.T) {
	// Fig 15: an index built from another index's centroids and
	// assignments must return identical exhaustive results.
	ds := testutil.SmallDataset(t)
	src := buildSmall(t, Options{KMeansFlavor: kmeans.FlavorPASE, Seed: 9})

	star, err := New(Options{Dim: ds.Dim, NList: src.opts.NList, UseGemm: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := star.SetCentroids(src.centroids); err != nil {
		t.Fatal(err)
	}
	assign := make([]int32, ds.N())
	ids := make([]int64, ds.N())
	for list, members := range src.listIDs {
		for _, id := range members {
			assign[id] = int32(list)
		}
	}
	for i := range ids {
		ids[i] = int64(i)
	}
	if err := star.AddPreassigned(ds.Base.Data, ds.N(), ids, assign); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 5; q++ {
		a, _ := src.Search(ds.Queries.Row(q), 10, SearchParams{NProbe: 20})
		b, _ := star.Search(ds.Queries.Row(q), 10, SearchParams{NProbe: 20})
		if !testutil.SameResults(a, b, 1e-4) {
			t.Fatalf("query %d: Faiss* diverged from source clustering", q)
		}
	}
}

func TestSetCentroidsValidation(t *testing.T) {
	ix, _ := New(Options{Dim: 4, NList: 2})
	if err := ix.SetCentroids(make([]float32, 7)); err == nil {
		t.Error("accepted wrong-size centroid matrix")
	}
}

func TestAddWithExplicitIDs(t *testing.T) {
	ds := testutil.SmallDataset(t)
	ix, _ := New(Options{Dim: ds.Dim, NList: 8})
	if err := ix.Train(ds.Base.Data, ds.N()); err != nil {
		t.Fatal(err)
	}
	ids := make([]int64, 100)
	for i := range ids {
		ids[i] = int64(1000 + i)
	}
	if err := ix.Add(ds.Base.Data[:100*ds.Dim], 100, ids); err != nil {
		t.Fatal(err)
	}
	items, err := ix.Search(ds.Base.Row(0), 1, SearchParams{NProbe: 8})
	if err != nil {
		t.Fatal(err)
	}
	if items[0].ID != 1000 || items[0].Dist != 0 {
		t.Errorf("self-search = %+v, want id 1000 dist 0", items[0])
	}
}
