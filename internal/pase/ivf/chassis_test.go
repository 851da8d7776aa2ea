package ivf_test

import (
	"fmt"
	"math"
	"sort"
	"strings"
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

// chassisIndex is the full surface the three IVF access methods share.
type chassisIndex interface {
	am.FilteredIndex
	am.BatchIndex
	am.MutableIndex
}

const fullProbe = "32" // amOpts builds 32 clusters

func (fx *fixture) buildIVF(t testing.TB, amName string) chassisIndex {
	t.Helper()
	return fx.build(t, amName).(chassisIndex)
}

// bruteTopK is the oracle: exact top-k over the live rows, ref kernel.
func (fx *fixture) bruteTopK(q []float32, k int, live func(row int) bool) []heap.TID {
	ref := vec.Ref()
	type cand struct {
		row int
		d   float32
	}
	var cands []cand
	for i, v := range fx.vecs {
		if live == nil || live(i) {
			cands = append(cands, cand{i, ref.L2Sqr(q, v)})
		}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].d != cands[b].d {
			return cands[a].d < cands[b].d
		}
		return cands[a].row < cands[b].row
	})
	out := make([]heap.TID, 0, k)
	for i := 0; i < k && i < len(cands); i++ {
		out = append(out, fx.tids[cands[i].row])
	}
	return out
}

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
func soloAll(t *testing.T, ix chassisIndex, qs [][]float32, ks []int, params map[string]string, preds []am.Predicate) [][]am.Result {
	t.Helper()
	out := make([][]am.Result, len(qs))
	for i, q := range qs {
		var err error
		if preds != nil && preds[i] != nil {
			out[i], err = ix.SearchFiltered(q, ks[i], params, preds[i])
		} else {
			out[i], err = ix.Search(q, ks[i], params)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func assertMultiMatchesSolo(t *testing.T, label string, ix chassisIndex, qs [][]float32, ks []int, params map[string]string, preds []am.Predicate) {
	t.Helper()
	multi, err := ix.MultiSearch(qs, ks, params, preds)
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
			ix := fx.buildIVF(t, c.am)
			const k = 10
			hit, total := 0, 0
			for _, q := range queries(5, 20) {
				got, err := ix.Search(q, k, map[string]string{"nprobe": fullProbe})
				if err != nil {
					t.Fatal(err)
				}
				want := map[heap.TID]bool{}
				for _, tid := range fx.bruteTopK(q, k, nil) {
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

// TestMultiSearchMatchesSolo: the batched path must be byte-identical to
// per-query calls across kernel × top-k policy × predicate (a batch
// group never mixes kernels or knobs).
func TestMultiSearchMatchesSolo(t *testing.T) {
	fx := newFixture(t, 3000, 8192, 1024)
	qs := queries(6, 7)
	ks := []int{7, 1, 10, 7, 30, 7, 3}
	mixed := []am.Predicate{nil, fx.predMod(2), nil, fx.predMod(5), nil, fx.predMod(3), nil}
	for _, c := range codecs {
		ix := fx.buildIVF(t, c.am)
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
			if pages := int(size) / fx.pageSize; pages/2 <= frames {
				t.Fatalf("%d index pages over 2 buckets: chains fit the %d-frame pool, nothing would flush", pages, frames)
			}
			params := map[string]string{"nprobe": "2"}
			assertMultiMatchesSolo(t, c.am+"/plain", ix, qs, ks, params, nil)
			assertMultiMatchesSolo(t, c.am+"/filtered", ix, qs, ks, params, []am.Predicate{nil, fx.predMod(2), nil, nil})
		})
	}
}

// pinsPerSearch counts the buffer pins one search takes.
func (fx *fixture) pinsPerSearch(t *testing.T, ix am.Index, q []float32) int64 {
	t.Helper()
	before := fx.pool.Stats()
	if _, err := ix.Search(q, 10, map[string]string{"nprobe": fullProbe}); err != nil {
		t.Fatal(err)
	}
	after := fx.pool.Stats()
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
			ix := fx.buildIVF(t, c.am)
			full := map[string]string{"nprobe": fullProbe}
			qs := queries(8, 5)
			ks := []int{10, 10, 10, 10, 10}

			// Delete two rows in three, from the heap and the index.
			live := func(row int) bool { return row%3 == 0 }
			var deleted int64
			for row, tid := range fx.tids {
				if live(row) {
					continue
				}
				if found, err := ix.Delete(fx.vecs[row], tid); err != nil || !found {
					t.Fatalf("Delete row %d = (%v, %v)", row, found, err)
				}
				if ok, err := fx.tbl.Delete(tid); err != nil || !ok {
					t.Fatalf("heap Delete row %d = (%v, %v)", row, ok, err)
				}
				deleted++
			}
			if found, err := ix.Delete(fx.vecs[1], fx.tids[1]); err != nil || found {
				t.Fatalf("second Delete of one entry = (%v, %v), want (false, nil)", found, err)
			}
			if got := ix.DeadCount(); got != deleted {
				t.Fatalf("DeadCount = %d, want %d", got, deleted)
			}
			tombstoned := soloAll(t, ix, qs, ks, full, nil)
			for i, rows := range tombstoned {
				for _, r := range rows {
					if !live(fx.row[r.TID]) {
						t.Fatalf("q=%d: deleted row %d still surfaced", i, fx.row[r.TID])
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
			assertMultiMatchesSolo(t, "compacted", ix, qs, ks, full, []am.Predicate{nil, fx.predMod(2), nil, nil, nil})

			// A fresh build over the survivors trains other centroids (and
			// other PQ codebooks), so only exact codecs can be held to the
			// same rows and distances; at full probe they must be.
			if c.exact {
				fresh := soloAll(t, fx.buildIVF(t, c.am), qs, ks, full, nil)
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
				tid := fx.insert(t, v)
				if err := ix.Insert(v, tid); err != nil {
					t.Fatal(err)
				}
				rows, err := ix.Search(v, 10, full)
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
			if grown := int(sizeAfter-sizeBefore) / fx.pageSize; grown*4 > inserts {
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
	preds := []am.Predicate{nil, nil, fx.predMod(2), nil, fx.predMod(3)}
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
		multi, err := opened.MultiSearch(qs, ks, nil, preds)
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

// TestArgumentValidation: every entry point rejects k <= 0 and vectors
// of the wrong dimensionality with an error — never a panic, never a
// silent rank on a prefix.
func TestArgumentValidation(t *testing.T) {
	fx := newFixture(t, 600, 8192, 256)
	good := queries(11, 1)[0]
	pred := fx.predMod(2)
	for _, name := range []string{"ivfflat", "ivfpq", "ivfsq8", "pgv_ivfflat"} {
		ix := fx.build(t, name)
		filtered := ix.(am.FilteredIndex)
		mutable := ix.(am.MutableIndex)
		for _, bad := range [][]float32{good[:fxDim-1], append(append([]float32(nil), good...), 1), nil} {
			if _, err := ix.Search(bad, 5, nil); err == nil {
				t.Errorf("%s: Search accepted a %d-dim query", name, len(bad))
			}
			if _, err := filtered.SearchFiltered(bad, 5, nil, pred); err == nil {
				t.Errorf("%s: SearchFiltered accepted a %d-dim query", name, len(bad))
			}
			if err := ix.Insert(bad, heap.TID{Blk: 1, Off: 1}); err == nil {
				t.Errorf("%s: Insert accepted a %d-dim vector", name, len(bad))
			}
			if _, err := mutable.Delete(bad, fx.tids[0]); err == nil {
				t.Errorf("%s: Delete accepted a %d-dim vector", name, len(bad))
			}
			if batch, ok := ix.(am.BatchIndex); ok {
				if _, err := batch.MultiSearch([][]float32{good, bad}, []int{5, 5}, nil, nil); err == nil {
					t.Errorf("%s: MultiSearch accepted a %d-dim query", name, len(bad))
				}
			}
			if flat, ok := ix.(*ivfflat.Index); ok {
				if err := flat.ScanProbes(vec.Default(), bad, 4, func(heap.TID, float32) {}); err == nil {
					t.Errorf("ScanProbes accepted a %d-dim query", len(bad))
				}
			}
		}
		for _, k := range []int{0, -1} {
			if _, err := ix.Search(good, k, nil); err == nil {
				t.Errorf("%s: Search accepted k=%d", name, k)
			}
			if _, err := filtered.SearchFiltered(good, k, nil, pred); err == nil {
				t.Errorf("%s: SearchFiltered accepted k=%d", name, k)
			}
			if batch, ok := ix.(am.BatchIndex); ok {
				for _, preds := range [][]am.Predicate{nil, {nil, pred}} {
					if _, err := batch.MultiSearch([][]float32{good, good}, []int{5, k}, nil, preds); err == nil {
						t.Errorf("%s: MultiSearch accepted k=%d", name, k)
					}
				}
			}
		}
		if batch, ok := ix.(am.BatchIndex); ok {
			if _, err := batch.MultiSearch([][]float32{good, good}, []int{5}, nil, nil); err == nil {
				t.Errorf("%s: MultiSearch accepted 2 queries with 1 k", name)
			}
		}
	}
}

// TestScanKnobParsing pins the one knob parser: which knobs each scan
// reads, and that a malformed value fails with the same error shape
// whichever access method reads it.
func TestScanKnobParsing(t *testing.T) {
	fx := newFixture(t, 600, 8192, 256)
	q := queries(12, 1)[0]
	pred := fx.predMod(2)
	for _, c := range codecs {
		ix := fx.buildIVF(t, c.am)
		scans := map[string]func(params map[string]string) error{
			"Search": func(p map[string]string) error { _, err := ix.Search(q, 5, p); return err },
			"SearchFiltered": func(p map[string]string) error {
				_, err := ix.SearchFiltered(q, 5, p, pred)
				return err
			},
			"MultiSearch": func(p map[string]string) error {
				_, err := ix.MultiSearch([][]float32{q, q}, []int{5, 5}, p, []am.Predicate{pred, nil})
				return err
			},
			"MultiSearch/all-filtered": func(p map[string]string) error {
				_, err := ix.MultiSearch([][]float32{q, q}, []int{5, 5}, p, []am.Predicate{pred, pred})
				return err
			},
		}
		rerank := c.am == "ivfsq8"
		for _, tc := range []struct {
			knob, value string
			read        func(scan string) bool
		}{
			{"nprobe", "abc", func(string) bool { return true }},
			// threads selects the RC#3 parallel scan, which exists only for
			// unfiltered queries of a codec that does not re-rank.
			{"threads", "x", func(scan string) bool {
				return !rerank && (scan == "Search" || scan == "MultiSearch")
			}},
			{"sq8_rerank", "?", func(string) bool { return rerank }},
		} {
			for scan, run := range scans {
				err := run(map[string]string{tc.knob: tc.value})
				want := fmt.Sprintf("pase: option %s=%q: ", tc.knob, tc.value)
				switch {
				case !tc.read(scan) && err != nil:
					t.Errorf("%s %s ignores %s, yet failed: %v", c.am, scan, tc.knob, err)
				case tc.read(scan) && (err == nil || !strings.HasPrefix(err.Error(), want)):
					t.Errorf("%s %s with %s=%s: error %v, want prefix %q", c.am, scan, tc.knob, tc.value, err, want)
				}
			}
		}
		// Out-of-range values clamp instead of failing.
		for _, p := range []map[string]string{{"nprobe": "0"}, {"nprobe": "-3"}, {"nprobe": "100000"}, {"sq8_rerank": "0"}, {"sq8_rerank": "-2"}} {
			if rows, err := ix.Search(q, 5, p); err != nil || len(rows) != 5 {
				t.Errorf("%s Search with %v = %d rows, %v", c.am, p, len(rows), err)
			}
		}
	}
}
