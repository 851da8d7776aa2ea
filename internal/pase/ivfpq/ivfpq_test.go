package ivfpq

import (
	"math"
	"sort"
	"testing"

	"vecstudy/internal/pase/ivf"
	"vecstudy/internal/pg/am"
	"vecstudy/internal/pq"
	"vecstudy/internal/testutil"
	"vecstudy/internal/vec"
)

const dim = testutil.AMFixtureDim

var withOpts = map[string]string{"clusters": "16", "sample_ratio": "1", "seed": "1", "m": "8", "ksub": "64"}

// buildPQ builds the index over the fixture and keeps hold of the codec,
// whose trained quantizer the tests replay through internal/pq.
func buildPQ(t *testing.T, fx *testutil.AMFixture) (*ivf.Index, *Codec) {
	t.Helper()
	codec := &Codec{}
	ix, err := ivf.Build(fx.Ctx(t, withOpts), codec)
	if err != nil {
		t.Fatal(err)
	}
	return ix, codec
}

// adc is the asymmetric distance as internal/pq defines it: the naive
// query-residual table looked up by the code of the row's residual.
func adc(q *pq.Quantizer, query, row, centroid []float32) float32 {
	resid := make([]float32, len(row))
	residual(row, centroid, resid)
	code := make([]byte, q.M)
	q.Encode(resid, code)
	residual(query, centroid, resid)
	tab := make([]float32, q.M*q.KSub)
	q.DistanceTableNaive(resid, tab)
	var dist float32
	for m, c := range code {
		dist += tab[m*q.KSub+int(c)]
	}
	return dist
}

// TestCodecMatchesPQ: on the codec's own codebooks, the payload it
// encodes, the per-(query, bucket) table it builds and the distances it
// scores are bit for bit what internal/pq computes from the residuals
// against that bucket's centroid.
func TestCodecMatchesPQ(t *testing.T) {
	fx := testutil.NewAMFixture(t, 1200, 8192, 1024)
	ix, codec := buildPQ(t, fx)
	quant := codec.quant
	if quant.D != dim || quant.M != 8 || quant.KSub != 64 || quant.DSub != dim/8 || codec.PayloadSize() != 8 {
		t.Fatalf("quantizer shape %+v, payload %d bytes", *quant, codec.PayloadSize())
	}

	// Marshal → Unmarshal (what Open does) restores the same codebooks.
	var reopened Codec
	if err := reopened.Unmarshal(dim, codec.Marshal()); err != nil {
		t.Fatal(err)
	}
	if r := reopened.quant; r.M != quant.M || r.KSub != quant.KSub || r.DSub != quant.DSub || len(r.Codebooks) != len(quant.Codebooks) {
		t.Fatalf("reopened quantizer shape %+v, trained %+v", *r, *quant)
	}
	for i, v := range reopened.quant.Codebooks {
		if math.Float32bits(v) != math.Float32bits(quant.Codebooks[i]) {
			t.Fatalf("codebook float %d: reopened %v, trained %v", i, v, quant.Codebooks[i])
		}
	}

	centroids := ix.Centroids()
	qv := testutil.Queries(3, 2)
	queries := []am.Query{{Vec: qv[0]}, {Vec: qv[1]}}
	sc := codec.NewScorer(vec.Default(), queries).(*scorer)
	resid := make([]float32, dim)
	tab := make([]float32, quant.M*quant.KSub)
	for _, cid := range []int{0, 7, 15} {
		centroid := centroids[cid*dim : (cid+1)*dim]

		// Entries as the chassis lays them out: header, then the payload.
		rows := fx.Vecs[cid*40 : cid*40+23]
		entries := make([][]byte, len(rows))
		for i, row := range rows {
			entries[i] = make([]byte, ivf.EntryHeaderSize+codec.PayloadSize())
			codec.Encode(row, centroid, entries[i][ivf.EntryHeaderSize:])
			residual(row, centroid, resid)
			want := make([]byte, quant.M)
			quant.Encode(resid, want)
			if string(entries[i][ivf.EntryHeaderSize:]) != string(want) {
				t.Fatalf("bucket %d row %d: codec code %v, pq code %v", cid, i, entries[i][ivf.EntryHeaderSize:], want)
			}
		}

		qs := []int{1, 0} // subscriber order is the chassis's business, not batch order
		sc.Bucket(centroid, qs)
		out := make([]float32, len(entries)*len(qs))
		sc.Score(entries, qs, false, out)
		for s, qi := range qs {
			residual(queries[qi].Vec, centroid, resid)
			quant.DistanceTableNaive(resid, tab)
			got := sc.tabs[sc.slot[qi]*len(tab):][:len(tab)]
			for m := 0; m < quant.M; m++ {
				for j := 0; j < quant.KSub; j++ {
					cell := got[m*quant.KSub+j]
					if math.Float32bits(cell) != math.Float32bits(tab[m*quant.KSub+j]) {
						t.Fatalf("bucket %d query %d table[%d,%d] = %v, pq %v", cid, qi, m, j, cell, tab[m*quant.KSub+j])
					}
				}
			}
			for i, row := range rows {
				want := adc(quant, queries[qi].Vec, row, centroid)
				if got := out[i*len(qs)+s]; math.Float32bits(got) != math.Float32bits(want) {
					t.Fatalf("bucket %d query %d row %d: scored %v, pq ADC %v", cid, qi, i, got, want)
				}
			}
		}
	}
}

// TestScanReturnsADCDistances: through the chassis, an exhaustive scan
// returns exactly the k smallest ADC distances internal/pq assigns the
// rows — each row scored against the centroid of the bucket it was
// assigned to — under either top-k policy.
func TestScanReturnsADCDistances(t *testing.T) {
	fx := testutil.NewAMFixture(t, 1200, 8192, 1024)
	ix, codec := buildPQ(t, fx)
	assigned, err := ix.Assignments()
	if err != nil {
		t.Fatal(err)
	}
	centroids := ix.Centroids()
	const k = 15
	for qn, q := range testutil.Queries(4, 3) {
		byTID := make(map[am.Result]bool, len(fx.TIDs))
		all := make([]float32, 0, len(fx.TIDs))
		for row, tid := range fx.TIDs {
			cid := int(assigned[tid])
			d := adc(codec.quant, q, fx.Vecs[row], centroids[cid*dim:(cid+1)*dim])
			byTID[am.Result{TID: tid, Dist: d}] = true
			all = append(all, d)
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		for _, heapMode := range []string{"n", "k"} {
			opts := testutil.ScanOpts(t, map[string]string{"nprobe": "16", "heap": heapMode, "distance_kernel": "unrolled"})
			rows := testutil.MustScan(t, &Index{ix}, []am.Query{{Vec: q, K: k}}, opts)[0]
			if len(rows) != k {
				t.Fatalf("q%d heap=%s: %d rows, want %d", qn, heapMode, len(rows), k)
			}
			for i, r := range rows {
				if math.Float32bits(r.Dist) != math.Float32bits(all[i]) {
					t.Errorf("q%d heap=%s rank %d: distance %v, pq's rank-%d ADC %v", qn, heapMode, i, r.Dist, i, all[i])
				}
				if !byTID[r] {
					t.Errorf("q%d heap=%s rank %d: %v is not that row's pq ADC distance", qn, heapMode, i, r)
				}
			}
		}
	}
}
