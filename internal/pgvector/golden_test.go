package pgvector_test

import (
	"hash/fnv"
	"runtime"
	"slices"
	"strings"
	"testing"

	"vecstudy/internal/pg/am"
	_ "vecstudy/internal/pgvector"
	"vecstudy/internal/testutil"
	"vecstudy/internal/vec"
)

// The index footprint and an FNV-1a digest over every (TID,
// Float32bits(Dist)) that solo, filtered and batched scans return for a
// fixed corpus, seed and nprobe set, per scan position ("heap/kernel",
// always named, never the session default). The paper position (heap =
// n, unrolled) was recorded at the commit before am.Index.Scan replaced
// Search and SearchFiltered, by running this test against those entry
// points (pgv_ivfflat had no multi-query one: its batch was, as it is
// now, a per-query loop); it is the cross-commit byte-identity proof.
// The served positions — heap = k under each kernel a host may default
// to, avx2 checked only where it registers — were recorded when the
// session defaults moved there. Re-record only for a deliberate format
// or arithmetic change, and say so in CHANGES.md.
const goldenSize int64 = 557056

var goldenDigest = map[string]uint64{
	"n/unrolled": 0x73bed81a17ea6ec9,
	"k/unrolled": 0x73bed81a17ea6ec9,
	"k/avx2":     0xb8a1d47c95bb8929,
}

func TestGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are recorded on amd64; other targets may fuse multiply-adds")
	}
	fx := testutil.NewAMFixture(t, 3000, 8192, 1024)
	vecs := testutil.Queries(99, 4)
	batch := []am.Query{
		{Vec: vecs[0], K: 10}, {Vec: vecs[1], K: 3, Pred: fx.PredMod(3)},
		{Vec: vecs[2], K: 25}, {Vec: vecs[3], K: 10, Pred: fx.PredMod(2)},
	}
	ix := fx.Build(t, "pgv_ivfflat", map[string]string{"clusters": "32", "sample_ratio": "1", "seed": "1"})
	size, err := ix.SizeBytes()
	if err != nil {
		t.Fatal(err)
	}
	if size != goldenSize {
		t.Errorf("pgv_ivfflat: %d bytes, recorded %d", size, goldenSize)
	}
	scan := func(qs []am.Query, opts *am.ScanOpts) [][]am.Result { return testutil.MustScan(t, ix, qs, opts) }
	for position, recorded := range goldenDigest {
		heapMode, kernel, _ := strings.Cut(position, "/")
		if !slices.Contains(vec.RegisteredKernelNames(), kernel) {
			continue
		}
		h := fnv.New64a()
		for _, nprobe := range []string{"2", "32"} {
			opts := testutil.ScanOpts(t, map[string]string{"heap": heapMode, "distance_kernel": kernel, "nprobe": nprobe})
			for _, q := range batch {
				testutil.DigestResults(h, scan([]am.Query{{Vec: q.Vec, K: q.K}}, opts)[0])
				if q.Pred != nil {
					testutil.DigestResults(h, scan([]am.Query{q}, opts)[0])
				}
			}
			for _, rows := range scan(batch, opts) {
				testutil.DigestResults(h, rows)
			}
		}
		if got := h.Sum64(); got != recorded {
			t.Errorf("pgv_ivfflat %s: %#x, recorded %#x", position, got, recorded)
		}
	}
}
