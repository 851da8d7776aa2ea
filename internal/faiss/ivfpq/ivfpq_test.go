package ivfpq

import (
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
	if opts.NList == 0 {
		opts.NList = ds.NumClusters()
	}
	if opts.M == 0 {
		opts.M = 16
	}
	if opts.KSub == 0 {
		opts.KSub = 64 // smaller codebooks keep tiny-scale training sane
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
	if _, err := New(Options{Dim: 0, NList: 4, M: 2}); err == nil {
		t.Error("accepted Dim=0")
	}
	if _, err := New(Options{Dim: 8, NList: 4, M: 3}); err == nil {
		t.Error("accepted M not dividing Dim")
	}
	if _, err := New(Options{Dim: 8, NList: 0, M: 2}); err == nil {
		t.Error("accepted NList=0")
	}
}

func TestLifecycleErrors(t *testing.T) {
	ix, _ := New(Options{Dim: 8, NList: 2, M: 2})
	if err := ix.Add(make([]float32, 8), 1, nil); err == nil {
		t.Error("Add before Train succeeded")
	}
	if _, err := ix.Search(make([]float32, 8), 1, SearchParams{NProbe: 1}); err == nil {
		t.Error("Search before Train succeeded")
	}
}

func TestSearchRecall(t *testing.T) {
	ds := testutil.SmallDataset(t)
	ix := buildSmall(t, Options{UseGemm: true, PrecomputeTable: true, Seed: 1})
	recall := testutil.Recall(t, ds, 10, func(q []float32) []minheap.Item {
		items, err := ix.Search(q, 10, SearchParams{NProbe: 10})
		if err != nil {
			t.Fatal(err)
		}
		return items
	})
	// PQ is lossy; the paper's IVF_PQ recalls sit well below IVF_FLAT.
	if recall < 0.4 {
		t.Errorf("recall@10 = %v, want >= 0.4", recall)
	}
}

func TestPrecomputeToggleSameResults(t *testing.T) {
	// RC#7 is a performance-only change: with and without the precomputed
	// tables the returned distances must agree (modulo FP noise).
	ds := testutil.SmallDataset(t)
	a := buildSmall(t, Options{PrecomputeTable: true, Seed: 2})
	b := buildSmall(t, Options{PrecomputeTable: false, Seed: 2})
	for q := 0; q < 5; q++ {
		ra, err := a.Search(ds.Queries.Row(q), 10, SearchParams{NProbe: 10})
		if err != nil {
			t.Fatal(err)
		}
		rb, err := b.Search(ds.Queries.Row(q), 10, SearchParams{NProbe: 10})
		if err != nil {
			t.Fatal(err)
		}
		if !testutil.SameResults(ra, rb, 0.05) {
			t.Fatalf("query %d: RC#7 toggle changed results:\n%v\n%v", q, ra, rb)
		}
	}
}

func TestParallelSearchMatchesSerial(t *testing.T) {
	ds := testutil.SmallDataset(t)
	ix := buildSmall(t, Options{PrecomputeTable: true, Seed: 3})
	for q := 0; q < 5; q++ {
		serial, _ := ix.Search(ds.Queries.Row(q), 10, SearchParams{NProbe: 8})
		par, _ := ix.Search(ds.Queries.Row(q), 10, SearchParams{NProbe: 8, Threads: 4})
		if !testutil.SameResults(serial, par, 1e-3) {
			t.Fatalf("query %d: parallel diverged", q)
		}
	}
}

func TestStatsPhases(t *testing.T) {
	ix := buildSmall(t, Options{Seed: 4})
	st := ix.Stats()
	if st.TrainTime <= 0 || st.AddTime <= 0 || st.NAdded == 0 {
		t.Errorf("stats not recorded: %+v", st)
	}
}

func TestSizeBytesSmallerThanFlat(t *testing.T) {
	ds := testutil.SmallDataset(t)
	ix := buildSmall(t, Options{Seed: 5})
	rawBytes := int64(ds.N()) * int64(ds.Dim) * 4
	if ix.SizeBytes() >= rawBytes {
		t.Errorf("IVF_PQ size %d not smaller than raw vectors %d", ix.SizeBytes(), rawBytes)
	}
}

func TestSearchQueryDimMismatch(t *testing.T) {
	ix := buildSmall(t, Options{Seed: 6})
	if _, err := ix.Search(make([]float32, 3), 5, SearchParams{NProbe: 4}); err == nil {
		t.Error("accepted wrong-dimension query")
	}
}

// TestSearchRejectsNonPositiveK: k <= 0 is an error on the serial and
// the parallel path, as on ivfflat, never a panic out of the result heap.
func TestSearchRejectsNonPositiveK(t *testing.T) {
	ix := buildSmall(t, Options{Seed: 7})
	q := testutil.SmallDataset(t).Queries.Row(0)
	for _, tc := range []struct{ k, threads int }{{0, 1}, {-1, 1}, {0, 4}, {-3, 4}} {
		if items, err := ix.Search(q, tc.k, SearchParams{NProbe: 4, Threads: tc.threads}); err == nil {
			t.Errorf("Search(k=%d, threads=%d) = %v, want an error", tc.k, tc.threads, items)
		}
	}
}
