package ivfsq8

import (
	"testing"

	"vecstudy/internal/pg/am"
	"vecstudy/internal/testutil"

	flat "vecstudy/internal/pase/ivfflat"
)

var withOpts = map[string]string{"clusters": "10", "sample_ratio": "1", "seed": "1"}

func newFixture(t *testing.T) *testutil.AMFixture {
	t.Helper()
	return testutil.NewAMFixture(t, 400, 4096, 512)
}

// exhaustive are the scan options that make the 10-cluster index exact.
func exhaustive() *am.ScanOpts {
	opts := am.DefaultScanOpts()
	opts.NProbe = 10
	return opts
}

func queryVec(seed int64) []float32 { return testutil.Queries(seed, 1)[0] }

// TestSearchMatchesExactAfterRerank: with exhaustive probes, the
// re-ranked results equal the full-precision brute-force top-k — the
// quantized phase only pre-selects; final distances are exact.
func TestSearchMatchesExactAfterRerank(t *testing.T) {
	fx := newFixture(t)
	ix := fx.Build(t, "ivfsq8", withOpts)
	const k = 10
	for seed := int64(100); seed < 110; seed++ {
		q := queryVec(seed)
		got := testutil.MustScan(t, ix, []am.Query{{Vec: q, K: k}}, exhaustive())[0]
		want := fx.BruteTopK(q, k, nil)
		if len(got) != k {
			t.Fatalf("seed %d: got %d results, want %d", seed, len(got), k)
		}
		for i := range got {
			if got[i].TID != want[i] {
				t.Errorf("seed %d rank %d: TID %v, exact %v", seed, i, got[i].TID, want[i])
			}
		}
	}
}

// TestIndexSmallerThanIvfflat: byte codes shrink the data entries 4x
// at d=32 (40 vs 136 bytes). At this small scale the fixed overhead —
// meta, centroid, and stats pages plus the one-page minimum per bucket
// chain — dilutes the on-disk ratio, so we only assert the whole
// relation is strictly smaller; the asymptotic ratio at dataset scale
// is the SQ8 table EXPERIMENTS.md records.
func TestIndexSmallerThanIvfflat(t *testing.T) {
	fx := newFixture(t)
	sq8 := fx.Build(t, "ivfsq8", withOpts)
	flatIx, err := flat.Build(fx.Ctx(t, withOpts))
	if err != nil {
		t.Fatal(err)
	}
	sq8Size, err := sq8.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	flatSize, err := flatIx.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if sq8Size >= flatSize {
		t.Errorf("ivfsq8 = %d bytes, ivfflat = %d: quantized index should be smaller", sq8Size, flatSize)
	}
}

// TestRerankBetaClamp: sq8_rerank = 1 still returns k rows at
// exhaustive probes (the quantized order is good enough to keep the
// true neighbors inside the top k on this easy data).
func TestRerankBetaClamp(t *testing.T) {
	fx := newFixture(t)
	ix := fx.Build(t, "ivfsq8", withOpts)
	opts := exhaustive()
	opts.Rerank = 1
	got := testutil.MustScan(t, ix, []am.Query{{Vec: queryVec(500), K: 10}}, opts)[0]
	if len(got) != 10 {
		t.Fatalf("beta=1: got %d rows, want 10", len(got))
	}
}
