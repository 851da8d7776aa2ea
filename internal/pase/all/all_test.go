package all_test

import (
	"testing"

	_ "vecstudy/internal/pase/all"
	"vecstudy/internal/pg/am"
	"vecstudy/internal/testutil"
)

// withOpts builds every access method on the 500-row fixture: each reads
// the options it knows and ignores the rest.
var withOpts = map[string]string{
	"clusters": "8", "sample_ratio": "1", "seed": "1", // ivf*
	"m": "8", "ksub": "16", // ivfpq
	"bnn": "8", "efb": "40", // hnsw
}

// TestScanContract holds every registered access method — whatever
// am.Names() lists, so a new one is covered on registration — to the
// am.Index scan contract: row i of a batched Scan is bit for bit the
// Scan of query i alone, with and without predicates; nil options are
// DefaultScanOpts(); and the Search(map) shim is a Scan of one.
func TestScanContract(t *testing.T) {
	fx := testutil.NewAMFixture(t, 500, 8192, 2048)
	vecs := testutil.Queries(3, 5)
	plain := []am.Query{{Vec: vecs[0], K: 10}, {Vec: vecs[1], K: 1}, {Vec: vecs[2], K: 25}, {Vec: vecs[3], K: 10}, {Vec: vecs[4], K: 3}}
	mixed := append([]am.Query(nil), plain...)
	mixed[1].Pred, mixed[3].Pred, mixed[4].Pred = fx.PredMod(2), fx.PredMod(3), fx.PredMod(7)
	custom := am.DefaultScanOpts()
	custom.NProbe, custom.EFS, custom.HeapK = 3, 32, true

	for _, name := range am.Names() {
		t.Run(name, func(t *testing.T) {
			ix := fx.Build(t, name, withOpts)
			if ix.AM() != name {
				t.Errorf("AM() = %q", ix.AM())
			}
			scan := func(qs []am.Query, opts *am.ScanOpts) [][]am.Result { return testutil.MustScan(t, ix, qs, opts) }
			for _, opts := range []*am.ScanOpts{nil, custom} {
				for label, batch := range map[string][]am.Query{"plain": plain, "mixed": mixed} {
					multi := scan(batch, opts)
					for i := range batch {
						if solo := scan(batch[i:i+1], opts)[0]; !testutil.SameAMResults(multi[i], solo) {
							t.Errorf("%s q=%d (custom opts: %v): batched %v, solo %v", label, i, opts != nil, multi[i], solo)
						}
						if len(multi[i]) == 0 || len(multi[i]) > batch[i].K {
							t.Errorf("%s q=%d: %d rows for k=%d", label, i, len(multi[i]), batch[i].K)
						}
					}
				}
			}
			byNil, byDefault := scan(plain, nil), scan(plain, am.DefaultScanOpts())
			for i, q := range plain {
				if !testutil.SameAMResults(byNil[i], byDefault[i]) {
					t.Errorf("q=%d: nil options %v, DefaultScanOpts() %v", i, byNil[i], byDefault[i])
				}
				shim, err := ix.Search(q.Vec, q.K, map[string]string{"nprobe": "3", "efs": "32", "heap": "k", "batch_max": "7"})
				if err != nil {
					t.Fatal(err)
				}
				if want := scan(plain[i:i+1], custom)[0]; !testutil.SameAMResults(shim, want) {
					t.Errorf("q=%d: Search(map) %v, Scan %v", i, shim, want)
				}
			}
			if out := scan(nil, nil); len(out) != 0 {
				t.Errorf("empty batch returned %v", out)
			}
		})
	}
}
