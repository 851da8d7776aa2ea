package hnsw

import (
	"hash/fnv"
	"runtime"
	"slices"
	"strings"
	"testing"

	"vecstudy/internal/pg/am"
	"vecstudy/internal/testutil"
	"vecstudy/internal/vec"
)

// golden pins, per adjacency layout (WITH packed = …, always named: the
// default moved to true), the index footprint and an FNV-1a digest over
// every (TID, Float32bits(Dist)) that solo, filtered and batched scans
// return for a fixed corpus, seed and efs set, per scan position. The
// paper position (heap = n, unrolled) was recorded at the commit before
// am.Index.Scan replaced Search, SearchFiltered and MultiSearch, by
// running this test against those entry points; it is the cross-commit
// byte-identity proof. The served position is heap = k under each kernel
// a host may default to (avx2 is checked only where it registers),
// recorded when the session defaults moved there; HNSW reads no heap
// knob, so under unrolled it equals the paper digest. The two layouts'
// digests are equal: the same seed builds the same graph in either, so
// they answer with identical (TID, Dist) lists. Re-record only for a
// deliberate format or arithmetic change, and say so in CHANGES.md.
var golden = map[string]struct {
	size   int64
	digest map[string]uint64 // "heap/kernel" → digest
}{
	"false": {16695296, map[string]uint64{"n/unrolled": 0x9aacdb63b1a2af95, "k/unrolled": 0x9aacdb63b1a2af95, "k/avx2": 0x790385ee14274412}},
	"true":  {1163264, map[string]uint64{"n/unrolled": 0x9aacdb63b1a2af95, "k/unrolled": 0x9aacdb63b1a2af95, "k/avx2": 0x790385ee14274412}},
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
		want := golden[packed]
		if size != want.size {
			t.Errorf("packed=%s: %d bytes, recorded %d", packed, size, want.size)
		}
		for position, recorded := range want.digest {
			heapMode, kernel, _ := strings.Cut(position, "/")
			if !slices.Contains(vec.RegisteredKernelNames(), kernel) {
				continue
			}
			h := fnv.New64a()
			for _, efs := range []string{"16", "200"} {
				opts := testutil.ScanOpts(t, map[string]string{"heap": heapMode, "distance_kernel": kernel, "efs": efs})
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
			if got := h.Sum64(); got != recorded {
				t.Errorf("packed=%s %s: %#x, recorded %#x", packed, position, got, recorded)
			}
		}
	}
}
