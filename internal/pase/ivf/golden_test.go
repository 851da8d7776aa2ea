package ivf_test

import (
	"hash/fnv"
	"runtime"
	"slices"
	"testing"

	"vecstudy/internal/pg/am"
	"vecstudy/internal/testutil"
	"vecstudy/internal/vec"
)

// golden pins, per access method, the index footprint and an FNV-1a
// digest over every (TID, Float32bits(Dist)) that solo, filtered and
// batched scans return for a fixed corpus, seed and knob set. Every knob
// set names its position explicitly — a digest belongs to a knob, never
// to whatever a session happens to default to.
//
// The paper digests start from heap = n under the unrolled kernel. The
// constants were recorded at the commit before the three IVF packages
// were folded onto the internal/pase/ivf chassis, against the Search,
// SearchFiltered and MultiSearch entry points that am.Index.Scan has
// since replaced; they are the cross-commit byte-identity proof the
// solo-vs-batched parity suites cannot give, and they outlived the move
// of the session defaults to heap = k and the best registered kernel
// unedited. The served digests are that default position, recorded at
// that move per kernel (avx2 is checked only where it registers) and
// equal at the commit before it, where the avx2 row-batch forms still
// called the solo body per row. Re-record only for a deliberate format
// or arithmetic change, and say so in CHANGES.md.
var golden = map[string]struct {
	size   int64
	digest uint64            // the paper knob sets
	served map[string]uint64 // kernel → the served knob sets
}{
	"ivfflat":     {1843200, 0x40ead594ad0ed711, map[string]uint64{"unrolled": 0x8c27c221958eb019, "avx2": 0x9e1f0abd40568c46}},
	"ivfpq":       {598016, 0x1f94dd3bb4f716ca, map[string]uint64{"unrolled": 0xe16adbbdba7e7a7e, "avx2": 0xe16adbbdba7e7a7e}},
	"ivfsq8":      {811008, 0xa2e32b7d5cc61d78, map[string]uint64{"unrolled": 0x8c27c221958eb019, "avx2": 0x9e1f0abd40568c46}},
	"pgv_ivfflat": {1843200, 0xc67fb87d85d563df, map[string]uint64{"unrolled": 0xe0125017618d7f03, "avx2": 0xf6257211ba86af51}},
}

func TestGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests are recorded on amd64; other targets may fuse multiply-adds")
	}
	fx := newFixture(t, 12000, 8192, 2048)
	qs := queries(99, 6)
	ks := []int{10, 10, 3, 10, 25, 10}
	preds := []am.Predicate{nil, fx.PredMod(3), nil, fx.PredMod(2), fx.PredMod(7), nil}
	// The paper position — heap = n under unrolled — then one knob moved.
	paper := map[string]string{"heap": "n", "distance_kernel": "unrolled"}
	paperHeapK := map[string]string{"heap": "k", "distance_kernel": "unrolled"}
	paperThreads := map[string]string{"heap": "n", "distance_kernel": "unrolled", "threads": "2"}
	paperRef := map[string]string{"heap": "n", "distance_kernel": "ref", "nprobe": "7"}
	paperKnobs := map[string][]map[string]string{
		"ivfflat": {paper, paperHeapK, paperThreads, paperRef},
		"ivfpq":   {paper, paperHeapK, paperThreads, paperRef},
		"ivfsq8": {paper, {"heap": "n", "distance_kernel": "unrolled", "sq8_rerank": "2"},
			{"heap": "n", "distance_kernel": "ref", "nprobe": "7", "sq8_rerank": "1"}},
		"pgv_ivfflat": {paper, paperRef},
	}
	servedKnobs := func(kernel string) []map[string]string {
		return []map[string]string{
			{"heap": "k", "distance_kernel": kernel},
			{"heap": "k", "distance_kernel": kernel, "nprobe": "7", "sq8_rerank": "2"},
		}
	}
	for _, name := range []string{"ivfflat", "ivfpq", "ivfsq8", "pgv_ivfflat"} {
		ix := fx.build(t, name)
		size, err := ix.SizeBytes()
		if err != nil {
			t.Fatal(err)
		}
		digest := func(knobSets []map[string]string) uint64 {
			h := fnv.New64a()
			add := func(rows []am.Result) { testutil.DigestResults(h, rows) }
			for _, knobs := range knobSets {
				opts := testutil.ScanOpts(t, knobs)
				for i, q := range qs {
					rows, err := scanOne(ix, am.Query{Vec: q, K: ks[i]}, opts)
					if err != nil {
						t.Fatalf("%s %v solo scan: %v", name, knobs, err)
					}
					add(rows)
					if p := preds[i]; p != nil {
						rows, err = scanOne(ix, am.Query{Vec: q, K: ks[i], Pred: p}, opts)
						if err != nil {
							t.Fatalf("%s %v filtered scan: %v", name, knobs, err)
						}
						add(rows)
					}
				}
				// pgv_ivfflat had no multi-query entry point when the paper
				// digests were recorded, so its digests carry no batched rows.
				if name != "pgv_ivfflat" {
					multi, err := ix.Scan(batchOf(qs, ks, preds), opts)
					if err != nil {
						t.Fatalf("%s %v batched scan: %v", name, knobs, err)
					}
					for _, rows := range multi {
						add(rows)
					}
				}
			}
			return h.Sum64()
		}
		want := golden[name]
		if got := digest(paperKnobs[name]); size != want.size || got != want.digest {
			t.Errorf("%s: {%d, %#x}, recorded {%d, %#x}", name, size, got, want.size, want.digest)
		}
		for kernel, recorded := range want.served {
			if !slices.Contains(vec.RegisteredKernelNames(), kernel) {
				continue
			}
			if got := digest(servedKnobs(kernel)); got != recorded {
				t.Errorf("%s served on %s: %#x, recorded %#x", name, kernel, got, recorded)
			}
		}
	}
}
