package hnsw

import (
	"fmt"
	"hash/fnv"
	"testing"

	"vecstudy/internal/pg/am"
	"vecstudy/internal/pg/heap"
	"vecstudy/internal/testutil"
)

func buildHNSW(t *testing.T, fx *testutil.AMFixture, packed bool) *Index {
	t.Helper()
	opts := map[string]string{"bnn": "8", "efb": "40", "seed": "1", "packed": fmt.Sprint(packed)}
	return fx.Build(t, "hnsw", opts).(*Index)
}

// recallAt10 is the fraction of the brute-force top-10 over the live
// rows that ix returns at efs = 200.
func recallAt10(t *testing.T, fx *testutil.AMFixture, ix am.Index, qs [][]float32, live func(row int) bool) float64 {
	t.Helper()
	const k = 10
	hit := 0
	for _, q := range qs {
		want := map[heap.TID]bool{}
		for _, tid := range fx.BruteTopK(q, k, live) {
			want[tid] = true
		}
		for _, r := range testutil.MustScan(t, ix, []am.Query{{Vec: q, K: k}}, nil)[0] {
			if live != nil && !live(fx.Row[r.TID]) {
				t.Fatalf("deleted row %d surfaced", fx.Row[r.TID])
			}
			if want[r.TID] {
				hit++
			}
		}
	}
	return float64(hit) / float64(k*len(qs))
}

func TestRecallAtHighEFS(t *testing.T) {
	fx := testutil.NewAMFixture(t, 2000, 8192, 4096)
	ix := buildHNSW(t, fx, false)
	if r := recallAt10(t, fx, ix, testutil.Queries(5, 20), nil); r < 0.95 {
		t.Errorf("recall@10 at efs=200 = %.3f, want >= 0.95", r)
	}
}

// TestBatchedScanMatchesSolo: a batch is answered query by query, so row
// i of a batched scan is bit for bit the solo scan of query i — across
// layouts, efs, and mixed nil/non-nil predicates.
func TestBatchedScanMatchesSolo(t *testing.T) {
	fx := testutil.NewAMFixture(t, 1500, 8192, 4096)
	vecs := testutil.Queries(6, 5)
	batch := []am.Query{
		{Vec: vecs[0], K: 7}, {Vec: vecs[1], K: 1, Pred: fx.PredMod(2)}, {Vec: vecs[2], K: 30},
		{Vec: vecs[3], K: 7, Pred: fx.PredMod(5)}, {Vec: vecs[4], K: 3},
	}
	for _, packed := range []bool{false, true} {
		ix := buildHNSW(t, fx, packed)
		for _, efs := range []int{16, 200} {
			opts := am.DefaultScanOpts()
			opts.EFS = efs
			multi := testutil.MustScan(t, ix, batch, opts)
			for i := range batch {
				if solo := testutil.MustScan(t, ix, batch[i:i+1], opts)[0]; !testutil.SameAMResults(multi[i], solo) {
					t.Errorf("packed=%v efs=%d q=%d: batched %v, solo %v", packed, efs, i, multi[i], solo)
				}
			}
		}
	}
}

// TestPagedAndPackedAnswerIdentically: the layouts differ only in where
// adjacency lists live. Built from the same seed they hold the same
// graph, so the stronger of the two possible claims holds — identical
// (TID, Dist) lists, not merely equal recall — at a several-times
// smaller footprint.
func TestPagedAndPackedAnswerIdentically(t *testing.T) {
	fx := testutil.NewAMFixture(t, 1500, 8192, 4096)
	paged, packed := buildHNSW(t, fx, false), buildHNSW(t, fx, true)
	for i, q := range testutil.Queries(7, 10) {
		query := []am.Query{{Vec: q, K: 10}}
		if a, b := testutil.MustScan(t, paged, query, nil)[0], testutil.MustScan(t, packed, query, nil)[0]; !testutil.SameAMResults(a, b) {
			t.Errorf("q=%d: paged %v, packed %v", i, a, b)
		}
	}
	pagedSize, _ := paged.SizeBytes()
	packedSize, _ := packed.SizeBytes()
	if packedSize*3 > pagedSize {
		t.Errorf("packed layout is %d bytes, paged %d: want at least 3x smaller", packedSize, pagedSize)
	}
}

// maintainDigest is the FNV-1a digest of the scans TestDeleteMaintain
// takes of the repaired graph — the elected entry point and every scan
// at heap = n, unrolled, efs = 10 — the same in both layouts, like the
// golden digests. The entry point is among the
// deleted rows and several survivors share the top level, so the digest
// holds only because electEntry breaks the tie by position, not by map
// iteration order.
const maintainDigest uint64 = 0xb3b1d84583183f1b

// TestDeleteMaintain walks the mutation life cycle: Delete hides an
// entry at once (it is still traversed), Maintain repairs the graph
// around the tombstones, elects a new entry point and unlinks them. The
// repaired graph is byte-stable — every run answers with the recorded
// (TID, Dist) lists — and its recall stays within a band of a fresh
// rebuild over the survivors (only a band: repair reconnects through
// one-hop neighbors, a rebuild re-runs insertion).
func TestDeleteMaintain(t *testing.T) {
	for _, packed := range []bool{false, true} {
		t.Run(fmt.Sprintf("packed=%v", packed), func(t *testing.T) {
			fx := testutil.NewAMFixture(t, 1500, 8192, 4096)
			ix := buildHNSW(t, fx, packed)
			qs := testutil.Queries(8, 20)

			entryTID, err := ix.tidOf(ix.meta.Entry)
			if err != nil {
				t.Fatal(err)
			}
			live := func(row int) bool { return row%3 == 0 && row != fx.Row[entryTID] }
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
			if r := recallAt10(t, fx, ix, qs, live); r < 0.9 {
				t.Errorf("tombstoned recall@10 = %.3f, want >= 0.9", r)
			}

			removed, err := ix.Maintain()
			if err != nil {
				t.Fatal(err)
			}
			if removed != deleted || ix.DeadCount() != 0 {
				t.Fatalf("Maintain removed %d (DeadCount now %d), want %d and 0", removed, ix.DeadCount(), deleted)
			}
			topLevel := 0
			for _, v := range ix.tids {
				if _, level, _, err := ix.entryState(v); err != nil {
					t.Fatal(err)
				} else if int32(level) == ix.meta.MaxLevel {
					topLevel++
				}
			}
			if topLevel < 2 {
				t.Fatalf("%d survivors at the top level: the fixture no longer makes the election a tie", topLevel)
			}
			h := fnv.New64a()
			elected, err := ix.tidOf(ix.meta.Entry)
			if err != nil {
				t.Fatal(err)
			}
			testutil.DigestResults(h, []am.Result{{TID: elected}})
			// efs = k: a beam this narrow ends where its entry point sends it.
			opts := testutil.ScanOpts(t, map[string]string{"efs": "10", "heap": "n", "distance_kernel": "unrolled"})
			for _, q := range qs {
				testutil.DigestResults(h, testutil.MustScan(t, ix, []am.Query{{Vec: q, K: 10}}, opts)[0])
			}
			if got := h.Sum64(); got != maintainDigest {
				t.Errorf("repaired graph digest %#x, recorded %#x", got, maintainDigest)
			}
			repaired := recallAt10(t, fx, ix, qs, live)

			// The heap rows are gone, so a fresh build sees only survivors.
			fresh := recallAt10(t, fx, buildHNSW(t, fx, packed), qs, live)
			t.Logf("recall@10: repaired %.3f, fresh rebuild %.3f", repaired, fresh)
			if repaired < fresh-0.05 {
				t.Errorf("repaired recall@10 = %.3f, fresh rebuild %.3f: want within 0.05", repaired, fresh)
			}
		})
	}
}

// TestEntryPointReelection: deleting the entry point leaves it in place
// as a tombstoned router until Maintain elects the highest-levelled live
// vertex; deleting everything leaves an empty graph that answers with
// zero rows and accepts inserts again.
func TestEntryPointReelection(t *testing.T) {
	fx := testutil.NewAMFixture(t, 400, 8192, 2048)
	ix := buildHNSW(t, fx, false)
	q := testutil.Queries(9, 1)[0]

	old := ix.meta.Entry
	entryTID, err := ix.tidOf(old)
	if err != nil {
		t.Fatal(err)
	}
	if found, err := ix.Delete(nil, entryTID); err != nil || !found {
		t.Fatalf("Delete entry point = (%v, %v)", found, err)
	}
	for _, r := range testutil.MustScan(t, ix, []am.Query{{Vec: fx.Vecs[fx.Row[entryTID]], K: 5}}, nil)[0] {
		if r.TID == entryTID {
			t.Fatal("tombstoned entry point surfaced")
		}
	}
	if _, err := ix.Maintain(); err != nil {
		t.Fatal(err)
	}
	if ix.meta.Entry == old || !ix.meta.Entry.Valid() {
		t.Fatalf("entry point after Maintain = %+v (was %+v)", ix.meta.Entry, old)
	}
	if _, _, dead, err := ix.entryState(ix.meta.Entry); err != nil || dead {
		t.Fatalf("elected entry point: dead=%v, %v", dead, err)
	}
	if rows := testutil.MustScan(t, ix, []am.Query{{Vec: q, K: 10}}, nil)[0]; len(rows) != 10 {
		t.Fatalf("%d rows after re-election, want 10", len(rows))
	}

	for row, tid := range fx.TIDs {
		if _, err := ix.Delete(fx.Vecs[row], tid); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ix.Maintain(); err != nil {
		t.Fatal(err)
	}
	if rows := testutil.MustScan(t, ix, []am.Query{{Vec: q, K: 10}}, nil)[0]; len(rows) != 0 {
		t.Fatalf("%d rows from an emptied graph", len(rows))
	}
	tid := fx.Insert(t, q)
	if err := ix.Insert(q, tid); err != nil {
		t.Fatal(err)
	}
	if rows := testutil.MustScan(t, ix, []am.Query{{Vec: q, K: 10}}, nil)[0]; len(rows) != 1 || rows[0].TID != tid {
		t.Fatalf("after re-insert: %v, want only %v", rows, tid)
	}
}

// TestTinyPool: build and search pin a handful of pages at a time, so a
// 16-frame pool must serve both — and, the graph being the same, answer
// exactly as a pool that holds everything.
func TestTinyPool(t *testing.T) {
	for _, packed := range []bool{false, true} {
		roomy := buildHNSW(t, testutil.NewAMFixture(t, 300, 8192, 2048), packed)
		tiny := buildHNSW(t, testutil.NewAMFixture(t, 300, 8192, 16), packed)
		for i, q := range testutil.Queries(10, 5) {
			query := []am.Query{{Vec: q, K: 10}}
			if a, b := testutil.MustScan(t, roomy, query, nil)[0], testutil.MustScan(t, tiny, query, nil)[0]; !testutil.SameAMResults(a, b) {
				t.Errorf("packed=%v q=%d: 16-frame pool %v, roomy pool %v", packed, i, b, a)
			}
		}
	}
}

// TestArgumentValidation: k <= 0 and wrong-dimension vectors are errors
// on every path, never a panic.
func TestArgumentValidation(t *testing.T) {
	fx := testutil.NewAMFixture(t, 200, 8192, 1024)
	ix := buildHNSW(t, fx, false)
	good := testutil.Queries(11, 1)[0]
	pred := fx.PredMod(2)
	for _, bad := range [][]float32{good[:len(good)-1], append(append([]float32(nil), good...), 1), nil} {
		for _, qs := range [][]am.Query{
			{{Vec: bad, K: 5}}, {{Vec: bad, K: 5, Pred: pred}}, {{Vec: good, K: 5}, {Vec: bad, K: 5}},
		} {
			if _, err := ix.Scan(qs, nil); err == nil {
				t.Errorf("Scan accepted a %d-dim query", len(bad))
			}
		}
		if err := ix.Insert(bad, heap.TID{Blk: 1, Off: 1}); err == nil {
			t.Errorf("Insert accepted a %d-dim vector", len(bad))
		}
	}
	for _, k := range []int{0, -1} {
		for _, qs := range [][]am.Query{
			{{Vec: good, K: k}}, {{Vec: good, K: k, Pred: pred}}, {{Vec: good, K: 5}, {Vec: good, K: k}},
		} {
			if _, err := ix.Scan(qs, nil); err == nil {
				t.Errorf("Scan accepted k=%d", k)
			}
		}
	}
}
