package core

import (
	"testing"
	"time"

	"vecstudy/internal/testutil"
)

func TestDefaultsResolve(t *testing.T) {
	ds := testutil.SmallDataset(t)
	p := Defaults(ds)
	if p.C != ds.NumClusters() {
		t.Errorf("C = %d, want √n = %d", p.C, ds.NumClusters())
	}
	if p.K > ds.N()/10 {
		t.Errorf("K = %d not clamped for n = %d", p.K, ds.N())
	}
	if p.M != 16 || p.BNN != 16 || p.EFB != 40 || p.EFS != 200 || p.NProbe != 20 {
		t.Errorf("Table II defaults wrong: %+v", p)
	}
	if !p.UseGemm || !p.PrecomputeTable {
		t.Error("specialized-engine optimizations should default on")
	}
}

func TestCompareBothIVFFlat(t *testing.T) {
	ds := testutil.SmallDataset(t)
	p := Defaults(ds)
	p.K = 10
	// The timing orders below are judged on the minimum of three runs
	// per side, cmd/kernelgate's statistic: one wall-clock sample of a
	// 10 ms phase flips when a parallel go test ./... shares the cores.
	var cmp Comparison
	var specAdd, genAdd, specSearch, genSearch time.Duration
	for i := 0; i < 3; i++ {
		c, err := CompareBoth(IVFFlat, ds, p)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			cmp = c
			specAdd, genAdd = c.Specialized.AddTime, c.Generalized.AddTime
			specSearch, genSearch = c.SpecSearch.Total, c.GenSearch.Total
		}
		specAdd, genAdd = min(specAdd, c.Specialized.AddTime), min(genAdd, c.Generalized.AddTime)
		specSearch, genSearch = min(specSearch, c.SpecSearch.Total), min(genSearch, c.GenSearch.Total)
	}
	// Shape assertions from the paper. At this tiny test scale the
	// K-means training sample covers most of the data, so total build
	// time is training-dominated and regime-dependent; the scale-free
	// invariant is the *adding phase* (RC#1: SGEMM-batched vs naive
	// assignment), which Fig 3 shows dominating at paper scale.
	if specAdd >= genAdd {
		t.Errorf("generalized adding phase should be slower: spec %v vs gen %v (min of 3)", specAdd, genAdd)
	}
	if gap := Gap(specSearch, genSearch); gap <= 1 {
		t.Errorf("generalized IVF_FLAT search should be slower (gap %.2fx, min of 3)", gap)
	}
	if cmp.SpecSearch.Recall < 0.8 || cmp.GenSearch.Recall < 0.7 {
		t.Errorf("recalls too low: spec %.3f gen %.3f", cmp.SpecSearch.Recall, cmp.GenSearch.Recall)
	}
	// Fig 11: IVF_FLAT sizes comparable (within 2.5× either way).
	ratio := sizeGap(cmp)
	if ratio < 0.4 || ratio > 2.5 {
		t.Errorf("IVF_FLAT size ratio %.2f, want near 1 (Fig 11)", ratio)
	}
}

// sizeGap returns how many times larger the generalized index was.
func sizeGap(c Comparison) float64 {
	return Gap(time.Duration(c.Specialized.SizeBytes), time.Duration(c.Generalized.SizeBytes))
}

func TestCompareBothHNSWSizeBlowup(t *testing.T) {
	ds := testutil.SmallDataset(t)
	p := Defaults(ds)
	p.K = 10
	cmp, err := CompareBoth(HNSW, ds, p)
	if err != nil {
		t.Fatal(err)
	}
	if sizeGap(cmp) < 2 {
		t.Errorf("HNSW size gap %.2fx, paper reports 2.9–13.3× (Fig 13)", sizeGap(cmp))
	}
	if cmp.SpecSearch.Recall < 0.8 || cmp.GenSearch.Recall < 0.8 {
		t.Errorf("HNSW recalls too low: spec %.3f gen %.3f", cmp.SpecSearch.Recall, cmp.GenSearch.Recall)
	}
	if cmp.SearchGapX() <= 1 {
		t.Errorf("generalized HNSW search should be slower (gap %.2fx)", cmp.SearchGapX())
	}
}

func TestFaissStarMatchesGeneralizedClustering(t *testing.T) {
	ds := testutil.SmallDataset(t)
	p := Defaults(ds)
	p.K = 10
	gen, _, err := BuildGeneralized(IVFFlat, ds, p)
	if err != nil {
		t.Fatal(err)
	}
	defer gen.Close()
	star, err := BuildFaissStar(gen, ds, p)
	if err != nil {
		t.Fatal(err)
	}
	// With identical clustering and identical nprobe, the two indexes
	// must return the same IDs for every query.
	for q := 0; q < 5; q++ {
		a, err := gen.Search(ds.Queries.Row(q), 10)
		if err != nil {
			t.Fatal(err)
		}
		b, err := star.Search(ds.Queries.Row(q), 10)
		if err != nil {
			t.Fatal(err)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("query %d rank %d: generalized %d vs Faiss* %d", q, i, a[i], b[i])
			}
		}
	}
}

func TestRunSearchReportsRecall(t *testing.T) {
	ds := testutil.SmallDataset(t)
	p := Defaults(ds)
	p.K = 10
	spec, _, err := BuildSpecialized(IVFFlat, ds, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSearch(spec, ds, 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.NQ != ds.NQ() || res.Recall < 0 || res.AvgLatency <= 0 {
		t.Errorf("bad search result: %+v", res)
	}
}

func TestIVFPQBothEngines(t *testing.T) {
	ds := testutil.SmallDataset(t)
	p := Defaults(ds)
	p.K = 10
	cmp, err := CompareBoth(IVFPQ, ds, p)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.SearchGapX() <= 1 {
		t.Errorf("generalized IVF_PQ search should be slower (gap %.2fx)", cmp.SearchGapX())
	}
	// PQ sizes comparable between engines (Fig 12) — and both lossy.
	if r := sizeGap(cmp); r < 0.3 || r > 3.5 {
		t.Errorf("IVF_PQ size ratio %.2f, want near 1 (Fig 12)", r)
	}
}

func TestBaselineSlowestGeneralized(t *testing.T) {
	// Fig 2's ordering: pgvector-style baseline slower than PASE-style.
	ds := testutil.SmallDataset(t)
	p := Defaults(ds)
	p.K = 10
	gen, _, err := BuildGeneralized(IVFFlat, ds, p)
	if err != nil {
		t.Fatal(err)
	}
	defer gen.Close()
	base, _, err := BuildGeneralizedBaseline(ds, p)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	if err := WarmUp(gen, ds, 10, 4); err != nil {
		t.Fatal(err)
	}
	if err := WarmUp(base, ds, 10, 4); err != nil {
		t.Fatal(err)
	}
	genRes, err := RunSearch(gen, ds, 10)
	if err != nil {
		t.Fatal(err)
	}
	baseRes, err := RunSearch(base, ds, 10)
	if err != nil {
		t.Fatal(err)
	}
	if baseRes.Recall < genRes.Recall-0.05 {
		t.Errorf("baseline recall %.3f far below PASE-style %.3f", baseRes.Recall, genRes.Recall)
	}
	if baseRes.Total < genRes.Total {
		t.Logf("note: baseline (%v) beat PASE-style (%v) at this tiny scale; Fig 2's ordering is asserted in the benchmark harness",
			baseRes.Total, genRes.Total)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	// Samples 1..n, so the nearest-rank p-quantile is ⌈p·n⌉ itself.
	for _, tc := range []struct {
		n    int
		p    float64
		want time.Duration
	}{
		{1, 0.50, 1}, {1, 0.99, 1},
		{10, 0.50, 5}, {10, 0.99, 10},
		{100, 0.50, 50}, {100, 0.99, 99},
		{200, 0.50, 100}, {200, 0.99, 198},
	} {
		sorted := make([]time.Duration, tc.n)
		for i := range sorted {
			sorted[i] = time.Duration(i + 1)
		}
		if got := percentile(sorted, tc.p); got != tc.want {
			t.Errorf("percentile(1..%d, %v) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
}
