package hnsw

import (
	"hash/fnv"
	"runtime"
	"testing"

	"vecstudy/internal/pg/am"
	"vecstudy/internal/testutil"
)

// golden pins, per adjacency layout (WITH packed = …), the index
// footprint and an FNV-1a digest over every (TID, Float32bits(Dist))
// that solo, filtered and batched scans return for a fixed corpus, seed
// and efs set. The constants were recorded at the commit before
// am.Index.Scan replaced Search, SearchFiltered and MultiSearch, by
// running this test against those entry points; they are the
// cross-commit byte-identity proof. The two digests are equal: the same
// seed builds the same graph in either layout, so the layouts answer
// with identical (TID, Dist) lists. Re-record only for a deliberate
// format or arithmetic change, and say so in CHANGES.md.
var golden = map[string]struct {
	size   int64
	digest uint64
}{
	"false": {16695296, 0x9aacdb63b1a2af95},
	"true":  {1163264, 0x9aacdb63b1a2af95},
}

func TestGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are recorded on amd64; other targets may fuse multiply-adds")
	}
	fx := testutil.NewAMFixture(t, 2000, 8192, 4096)
	vecs := testutil.Queries(99, 4)
	batch := []am.Query{
		{Vec: vecs[0], K: 10}, {Vec: vecs[1], K: 3, Pred: fx.PredMod(3)},
		{Vec: vecs[2], K: 25}, {Vec: vecs[3], K: 10, Pred: fx.PredMod(2)},
	}
	for _, packed := range []string{"false", "true"} {
		ix := fx.Build(t, "hnsw", map[string]string{"bnn": "8", "efb": "40", "seed": "1", "packed": packed})
		size, err := ix.SizeBytes()
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		for _, efs := range []int{16, 200} {
			opts := am.DefaultScanOpts()
			opts.EFS = efs
			for _, q := range batch {
				testutil.DigestResults(h, testutil.MustScan(t, ix, []am.Query{{Vec: q.Vec, K: q.K}}, opts)[0])
				if q.Pred != nil {
					testutil.DigestResults(h, testutil.MustScan(t, ix, []am.Query{q}, opts)[0])
				}
			}
			for _, rows := range testutil.MustScan(t, ix, batch, opts) {
				testutil.DigestResults(h, rows)
			}
		}
		want := golden[packed]
		if got := h.Sum64(); size != want.size || got != want.digest {
			t.Errorf("packed=%s: {%d, %#x}, recorded {%d, %#x}", packed, size, got, want.size, want.digest)
		}
	}
}
