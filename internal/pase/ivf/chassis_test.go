package ivf_test

import (
	"fmt"
	"math"
	"testing"

	"vecstudy/internal/pase/ivf"
	"vecstudy/internal/pase/ivfflat"
	"vecstudy/internal/pase/ivfpq"
	"vecstudy/internal/pase/ivfsq8"
	"vecstudy/internal/pg/am"
	"vecstudy/internal/pg/heap"
	"vecstudy/internal/vec"
)

// codecs is the table the chassis suite runs over: every ivf.Codec, with
// what the suite may assume about its distances.
var codecs = []struct {
	am        string
	codec     func() ivf.Codec
	exact     bool    // returned distances are full precision (flat; sq8 after re-rank)
	minRecall float64 // recall@10 floor at full nprobe
}{
	{"ivfflat", func() ivf.Codec { return &ivfflat.Codec{} }, true, 1},
	{"ivfpq", func() ivf.Codec { return &ivfpq.Codec{} }, false, 0.5},
	{"ivfsq8", func() ivf.Codec { return &ivfsq8.Codec{} }, true, 1},
}

const fullProbe = "32" // amOpts builds 32 clusters

func assertSame(t *testing.T, label string, got, want []am.Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results, want %d", label, len(got), len(want))
	}
	for j := range got {
		if got[j].TID != want[j].TID || math.Float32bits(got[j].Dist) != math.Float32bits(want[j].Dist) {
			t.Fatalf("%s rank %d: (%v, %#x), want (%v, %#x)", label, j,
				got[j].TID, math.Float32bits(got[j].Dist), want[j].TID, math.Float32bits(want[j].Dist))
		}
	}
}

// soloAll answers the batch one query at a time.
func soloAll(t *testing.T, ix am.Index, qs [][]float32, ks []int, params map[string]string, preds []am.Predicate) [][]am.Result {
	t.Helper()
	opts := scanOpts(t, params)
	out := make([][]am.Result, len(qs))
	for i, q := range batchOf(qs, ks, preds) {
		var err error
		if out[i], err = scanOne(ix, q, opts); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func assertMultiMatchesSolo(t *testing.T, label string, ix am.Index, qs [][]float32, ks []int, params map[string]string, preds []am.Predicate) {
	t.Helper()
	multi, err := ix.Scan(batchOf(qs, ks, preds), scanOpts(t, params))
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range soloAll(t, ix, qs, ks, params, preds) {
		assertSame(t, fmt.Sprintf("%s q=%d", label, i), multi[i], want)
	}
}

func TestRecallAtFullProbe(t *testing.T) {
	fx := newFixture(t, 3000, 8192, 1024)
	for _, c := range codecs {
		t.Run(c.am, func(t *testing.T) {
			ix := fx.build(t, c.am)
			const k = 10
			hit, total := 0, 0
			for _, q := range queries(5, 20) {
				got, err := scanOne(ix, am.Query{Vec: q, K: k}, scanOpts(t, map[string]string{"nprobe": fullProbe}))
				if err != nil {
					t.Fatal(err)
				}
				want := map[heap.TID]bool{}
				for _, tid := range fx.BruteTopK(q, k, nil) {
					want[tid] = true
				}
				for _, r := range got {
					if want[r.TID] {
						hit++
					}
				}
				total += k
			}
			if recall := float64(hit) / float64(total); recall < c.minRecall {
				t.Errorf("recall@%d = %.3f, want >= %.2f", k, recall, c.minRecall)
			}
		})
	}
}

// TestBatchedScanMatchesSolo: the batched path must be byte-identical to
// per-query calls across kernel × top-k policy × predicate (a batch
// group never mixes kernels or knobs).
func TestBatchedScanMatchesSolo(t *testing.T) {
	fx := newFixture(t, 3000, 8192, 1024)
	qs := queries(6, 7)
	ks := []int{7, 1, 10, 7, 30, 7, 3}
	mixed := []am.Predicate{nil, fx.PredMod(2), nil, fx.PredMod(5), nil, fx.PredMod(3), nil}
	for _, c := range codecs {
		ix := fx.build(t, c.am)
		for _, kernel := range vec.RegisteredKernelNames() {
			for _, heapMode := range []string{"n", "k"} {
				for predName, preds := range map[string][]am.Predicate{"nil": nil, "mixed": mixed} {
					label := fmt.Sprintf("%s/%s/heap=%s/pred=%s", c.am, kernel, heapMode, predName)
					params := map[string]string{"distance_kernel": kernel, "heap": heapMode, "nprobe": "9"}
					assertMultiMatchesSolo(t, label, ix, qs, ks, params, preds)
				}
			}
		}
		// threads > 1 is not coalesced: the batch degenerates to solo calls.
		assertMultiMatchesSolo(t, c.am+"/threads=2", ix, qs, ks, map[string]string{"threads": "2"}, mixed)
	}
}

// TestPinnedWalkFlushesUnderPoolPressure: with a 16-frame pool and
// bucket chains longer than the pool, the multi-query walker cannot keep
// a whole chain pinned; it must flush segments mid-chain and still hand
// every subscriber the full bucket. A bucket with a filtered subscriber
// is walked page at a time instead, because its predicate pins heap pages
// in the same pool: the second batch fails with ErrNoUnpinned if a
// predicate ever runs under a segment's pins.
func TestPinnedWalkFlushesUnderPoolPressure(t *testing.T) {
	const frames = 16
	fx := newFixture(t, 2000, 1024, frames)
	qs := queries(7, 4)
	ks := []int{10, 10, 10, 10}
	for _, c := range codecs {
		t.Run(c.am, func(t *testing.T) {
			opts := map[string]string{}
			for k, v := range amOpts[c.am] {
				opts[k] = v
			}
			opts["clusters"] = "2"
			ctx := fx.ctx(t, c.am)
			ctx.Opts = opts
			ix, err := ivf.Build(ctx, c.codec())
			if err != nil {
				t.Fatal(err)
			}
			size, err := ix.SizeBytes()
			if err != nil {
				t.Fatal(err)
			}
			if pages := int(size) / fx.PageSize; pages/2 <= frames {
				t.Fatalf("%d index pages over 2 buckets: chains fit the %d-frame pool, nothing would flush", pages, frames)
			}
			params := map[string]string{"nprobe": "2"}
			assertMultiMatchesSolo(t, c.am+"/plain", ix, qs, ks, params, nil)
			assertMultiMatchesSolo(t, c.am+"/filtered", ix, qs, ks, params, []am.Predicate{nil, fx.PredMod(2), nil, nil})
		})
	}
}

// pinsPerSearch counts the buffer pins one search takes.
func (fx *fixture) pinsPerSearch(t *testing.T, ix am.Index, q []float32) int64 {
	t.Helper()
	opts := scanOpts(t, map[string]string{"nprobe": fullProbe})
	before := fx.Pool.Stats()
	if _, err := scanOne(ix, am.Query{Vec: q, K: 10}, opts); err != nil {
		t.Fatal(err)
	}
	after := fx.Pool.Stats()
	return (after.Hits + after.Misses) - (before.Hits + before.Misses)
}

// TestDeleteMaintainInsert walks the mutation life cycle: Delete hides an
// entry at once, Maintain reclaims the tombstones and shortens the
// chains without changing any answer, the compacted index answers like
// a fresh rebuild over the survivors, and a later Insert lands in the
// repacked tail instead of growing the relation.
func TestDeleteMaintainInsert(t *testing.T) {
	for _, c := range codecs {
		t.Run(c.am, func(t *testing.T) {
			// 2 KiB pages: every codec's ~94-entry buckets span several pages.
			fx := newFixture(t, 3000, 2048, 2048)
			ix := fx.build(t, c.am)
			full := map[string]string{"nprobe": fullProbe}
			qs := queries(8, 5)
			ks := []int{10, 10, 10, 10, 10}

			// Delete two rows in three, from the heap and the index.
			live := func(row int) bool { return row%3 == 0 }
			var deleted int64
			for row, tid := range fx.TIDs {
				if live(row) {
					continue
				}
				if found, err := ix.Delete(fx.Vecs[row], tid); err != nil || !found {
					t.Fatalf("Delete row %d = (%v, %v)", row, found, err)
				}
				if ok, err := fx.Table.Delete(tid); err != nil || !ok {
					t.Fatalf("heap Delete row %d = (%v, %v)", row, ok, err)
				}
				deleted++
			}
			if found, err := ix.Delete(fx.Vecs[1], fx.TIDs[1]); err != nil || found {
				t.Fatalf("second Delete of one entry = (%v, %v), want (false, nil)", found, err)
			}
			if got := ix.DeadCount(); got != deleted {
				t.Fatalf("DeadCount = %d, want %d", got, deleted)
			}
			tombstoned := soloAll(t, ix, qs, ks, full, nil)
			for i, rows := range tombstoned {
				for _, r := range rows {
					if !live(fx.Row[r.TID]) {
						t.Fatalf("q=%d: deleted row %d still surfaced", i, fx.Row[r.TID])
					}
				}
			}
			assertMultiMatchesSolo(t, "tombstoned", ix, qs, ks, full, nil)

			pinsBefore := fx.pinsPerSearch(t, ix, qs[0])
			removed, err := ix.Maintain()
			if err != nil {
				t.Fatal(err)
			}
			if removed != deleted || ix.DeadCount() != 0 {
				t.Fatalf("Maintain removed %d (DeadCount now %d), want %d and 0", removed, ix.DeadCount(), deleted)
			}
			if pinsAfter := fx.pinsPerSearch(t, ix, qs[0]); pinsAfter >= pinsBefore {
				t.Errorf("a full-probe search pins %d pages after compaction, %d before: chains did not shrink", pinsAfter, pinsBefore)
			}
			compacted := soloAll(t, ix, qs, ks, full, nil)
			for i := range qs {
				assertSame(t, fmt.Sprintf("post-maintain q=%d", i), compacted[i], tombstoned[i])
			}
			assertMultiMatchesSolo(t, "compacted", ix, qs, ks, full, []am.Predicate{nil, fx.PredMod(2), nil, nil, nil})

			// A fresh build over the survivors trains other centroids (and
			// other PQ codebooks), so only exact codecs can be held to the
			// same rows and distances; at full probe they must be.
			if c.exact {
				fresh := soloAll(t, fx.build(t, c.am), qs, ks, full, nil)
				for i := range qs {
					assertSame(t, fmt.Sprintf("fresh rebuild q=%d", i), compacted[i], fresh[i])
				}
			}

			// Inserts must append to the repacked tails: an entry written to
			// an orphaned old tail would be unreachable, and one that always
			// opened a new page would grow the relation a page per insert.
			sizeBefore, err := ix.SizeBytes()
			if err != nil {
				t.Fatal(err)
			}
			const inserts = 40
			for _, v := range queries(9, inserts) {
				tid := fx.Insert(t, v)
				if err := ix.Insert(v, tid); err != nil {
					t.Fatal(err)
				}
				rows, err := scanOne(ix, am.Query{Vec: v, K: 10}, scanOpts(t, full))
				if err != nil {
					t.Fatal(err)
				}
				found := false
				for _, r := range rows {
					found = found || r.TID == tid
				}
				if !found || (c.exact && rows[0].TID != tid) {
					t.Fatalf("inserted row %v not found by its own vector: %v", tid, rows)
				}
			}
			sizeAfter, err := ix.SizeBytes()
			if err != nil {
				t.Fatal(err)
			}
			if grown := int(sizeAfter-sizeBefore) / fx.PageSize; grown*4 > inserts {
				t.Errorf("%d inserts after compaction opened %d new pages: the repacked tails were not reused", inserts, grown)
			}
		})
	}
}

// TestOpenAnswersLikeBuild: Open on the already-written relation reloads
// the centroids and the codec's persisted state and answers every scan
// byte-identically to the index that built it.
func TestOpenAnswersLikeBuild(t *testing.T) {
	fx := newFixture(t, 3000, 8192, 1024)
	qs := queries(10, 5)
	ks := []int{10, 3, 10, 10, 10}
	preds := []am.Predicate{nil, nil, fx.PredMod(2), nil, fx.PredMod(3)}
	for _, c := range codecs {
		ctx := fx.ctx(t, c.am)
		built, err := ivf.Build(ctx, c.codec())
		if err != nil {
			t.Fatal(err)
		}
		opened, err := ivf.Open(ctx, c.codec())
		if err != nil {
			t.Fatal(err)
		}
		want := soloAll(t, built, qs, ks, nil, preds)
		for i, got := range soloAll(t, opened, qs, ks, nil, preds) {
			assertSame(t, fmt.Sprintf("%s solo q=%d", c.am, i), got, want[i])
		}
		multi, err := opened.Scan(batchOf(qs, ks, preds), nil)
		if err != nil {
			t.Fatal(err)
		}
		for i := range qs {
			assertSame(t, fmt.Sprintf("%s multi q=%d", c.am, i), multi[i], want[i])
		}

		other := *ctx
		other.Dim = fxDim + 1
		if _, err := ivf.Open(&other, c.codec()); err == nil {
			t.Errorf("%s: Open with a mismatched table dimension succeeded", c.am)
		}
	}
}

// TestArgumentValidation: a scan rejects k <= 0 and vectors of the wrong
// dimensionality — solo, filtered, or anywhere in a batch — with an
// error: never a panic, never a silent rank on a prefix. Insert, Delete
// and ScanProbes check dimensions the same way.
func TestArgumentValidation(t *testing.T) {
	fx := newFixture(t, 600, 8192, 256)
	good := queries(11, 1)[0]
	pred := fx.PredMod(2)
	for _, name := range []string{"ivfflat", "ivfpq", "ivfsq8", "pgv_ivfflat"} {
		ix := fx.build(t, name)
		for _, bad := range [][]float32{good[:fxDim-1], append(append([]float32(nil), good...), 1), nil} {
			if _, err := scanOne(ix, am.Query{Vec: bad, K: 5}, nil); err == nil {
				t.Errorf("%s: solo scan accepted a %d-dim query", name, len(bad))
			}
			if _, err := scanOne(ix, am.Query{Vec: bad, K: 5, Pred: pred}, nil); err == nil {
				t.Errorf("%s: filtered scan accepted a %d-dim query", name, len(bad))
			}
			if err := ix.Insert(bad, heap.TID{Blk: 1, Off: 1}); err == nil {
				t.Errorf("%s: Insert accepted a %d-dim vector", name, len(bad))
			}
			if _, err := ix.Delete(bad, fx.TIDs[0]); err == nil {
				t.Errorf("%s: Delete accepted a %d-dim vector", name, len(bad))
			}
			if _, err := ix.Scan([]am.Query{{Vec: good, K: 5}, {Vec: bad, K: 5}}, nil); err == nil {
				t.Errorf("%s: batched scan accepted a %d-dim query", name, len(bad))
			}
			if flat, ok := ix.(*ivfflat.Index); ok {
				if err := flat.ScanProbes(vec.Default(), bad, 4, func(heap.TID, float32) {}); err == nil {
					t.Errorf("ScanProbes accepted a %d-dim query", len(bad))
				}
			}
		}
		for _, k := range []int{0, -1} {
			if _, err := scanOne(ix, am.Query{Vec: good, K: k}, nil); err == nil {
				t.Errorf("%s: solo scan accepted k=%d", name, k)
			}
			if _, err := scanOne(ix, am.Query{Vec: good, K: k, Pred: pred}, nil); err == nil {
				t.Errorf("%s: filtered scan accepted k=%d", name, k)
			}
			for _, p := range []am.Predicate{nil, pred} {
				if _, err := ix.Scan([]am.Query{{Vec: good, K: 5}, {Vec: good, K: k, Pred: p}}, nil); err == nil {
					t.Errorf("%s: batched scan accepted k=%d", name, k)
				}
			}
		}
	}
}

// TestScanOptsClamp: options a session can hold but an index cannot run
// as given are fitted, not failed — nprobe beyond the bucket count (SET
// admits any positive integer) and the out-of-range values only a
// hand-built ScanOpts can carry.
func TestScanOptsClamp(t *testing.T) {
	fx := newFixture(t, 600, 8192, 256)
	q := queries(12, 1)[0]
	for _, c := range codecs {
		ix := fx.build(t, c.am)
		for _, fit := range []func(*am.ScanOpts){
			func(o *am.ScanOpts) { o.NProbe = 0 },
			func(o *am.ScanOpts) { o.NProbe = -3 },
			func(o *am.ScanOpts) { o.NProbe = 100000 },
			func(o *am.ScanOpts) { o.Rerank = 0 },
			func(o *am.ScanOpts) { o.Rerank = -2 },
			func(o *am.ScanOpts) { o.Threads = -3 },
		} {
			opts := am.DefaultScanOpts()
			fit(opts)
			if rows, err := scanOne(ix, am.Query{Vec: q, K: 5}, opts); err != nil || len(rows) != 5 {
				t.Errorf("%s scan with %+v = %d rows, %v", c.am, *opts, len(rows), err)
			}
		}
	}
}

// TestSoloScanPinCount: a Scan of one query is the solo walk — one data
// page pinned at a time, in probe-rank order — not a multi-query probe
// of one. The counts are the buffer pins the Search entry point took on
// these fixtures at the commit before Scan replaced it: a default pool,
// and a 16-frame pool that bucket chains do not fit.
func TestSoloScanPinCount(t *testing.T) {
	recorded := map[string]struct{ defaultPool, tinyPool int64 }{
		"ivfflat": {63, 289},
		"ivfpq":   {40, 60},
		"ivfsq8":  {80, 148},
	}
	q := queries(13, 1)[0]
	big := newFixture(t, 3000, 8192, 1024)
	tiny := newFixture(t, 2000, 1024, 16)
	for _, c := range codecs {
		pins := func(fx *fixture, clusters string, knobs map[string]string) int64 {
			opts := map[string]string{}
			for k, v := range amOpts[c.am] {
				opts[k] = v
			}
			opts["clusters"] = clusters
			ctx := fx.ctx(t, c.am)
			ctx.Opts = opts
			ix, err := ivf.Build(ctx, c.codec())
			if err != nil {
				t.Fatal(err)
			}
			scan := scanOpts(t, knobs)
			before := fx.Pool.Stats()
			if _, err := scanOne(ix, am.Query{Vec: q, K: 10}, scan); err != nil {
				t.Fatal(err)
			}
			after := fx.Pool.Stats()
			return (after.Hits + after.Misses) - (before.Hits + before.Misses)
		}
		want := recorded[c.am]
		if got := pins(big, "32", nil); got != want.defaultPool {
			t.Errorf("%s: %d pins in the default pool, recorded %d", c.am, got, want.defaultPool)
		}
		if got := pins(tiny, "2", map[string]string{"nprobe": "2"}); got != want.tinyPool {
			t.Errorf("%s: %d pins in the 16-frame pool, recorded %d", c.am, got, want.tinyPool)
		}
	}
}
