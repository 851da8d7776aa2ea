package hnswalk_test

import (
	"fmt"
	"math"
	"testing"

	faisshnsw "vecstudy/internal/faiss/hnsw"
	"vecstudy/internal/pg/am"
	"vecstudy/internal/testutil"
	"vecstudy/internal/vec"

	_ "vecstudy/internal/pase/hnsw" // registers USING hnsw
)

// TestEnginesBuildTheSameGraph: with vec.GraphKernel, the kernel both
// builds score with, on both sides' searches too, the
// same seed, bnn and efb, and the same rows in TID order, Faiss's flat
// arrays and PASE's pages (either layout) hold one graph, so every
// query answers with identical (row, distance) lists at every efs. The
// engines differ in where the graph lives, not in which graph it is;
// that is what makes their gap in Tab III and Fig 7–8 a statement about
// storage.
func TestEnginesBuildTheSameGraph(t *testing.T) {
	const n, k = 1000, 10
	fx := testutil.NewAMFixture(t, n, 8192, 4096)
	fix, err := faisshnsw.New(faisshnsw.Options{Dim: testutil.AMFixtureDim, Kernel: vec.GraphKernel(), BNN: 8, EFB: 40, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range fx.Vecs {
		if err := fix.Add(v, 1); err != nil {
			t.Fatal(err)
		}
	}
	queries := testutil.Queries(21, 100)
	for _, packed := range []bool{false, true} {
		pix := fx.Build(t, "hnsw", map[string]string{"bnn": "8", "efb": "40", "seed": "1", "packed": fmt.Sprint(packed)})
		for _, efs := range []int{10, 40, 200} {
			opts := testutil.ScanOpts(t, map[string]string{"distance_kernel": vec.GraphKernelName, "efs": fmt.Sprint(efs)})
			for qi, q := range queries {
				want, err := fix.Search(q, k, efs)
				if err != nil {
					t.Fatal(err)
				}
				got := testutil.MustScan(t, pix, []am.Query{{Vec: q, K: k}}, opts)[0]
				same := len(got) == len(want)
				for i := 0; same && i < len(got); i++ {
					same = int64(fx.Row[got[i].TID]) == want[i].ID &&
						math.Float32bits(got[i].Dist) == math.Float32bits(want[i].Dist)
				}
				if !same {
					t.Fatalf("packed=%v efs=%d q=%d: PASE %v, Faiss %v", packed, efs, qi, got, want)
				}
			}
		}
	}
}
