package kmeans

import (
	"math/rand"
	"testing"

	"vecstudy/internal/vec"
)

// blobs generates k well-separated Gaussian blobs of points.
func blobs(rng *rand.Rand, k, perCluster, d int, sep float64) ([]float32, int) {
	n := k * perCluster
	data := make([]float32, 0, n*d)
	centers := make([]float32, k*d)
	for i := range centers {
		centers[i] = float32(rng.NormFloat64() * sep)
	}
	for c := 0; c < k; c++ {
		for p := 0; p < perCluster; p++ {
			for j := 0; j < d; j++ {
				data = append(data, centers[c*d+j]+float32(rng.NormFloat64()))
			}
		}
	}
	return data, n
}

// centroid returns the i-th centroid of r.
func centroid(r *Result, i int) []float32 { return r.Centroids[i*r.D : (i+1)*r.D] }

// assignRows maps each of the n rows of data to its nearest centroid in
// r through the assignment step training runs.
func assignRows(r *Result, data []float32, n int, useGemm bool) []int32 {
	assign := make([]int32, n)
	vec.AssignBatch(data, n, r.Centroids, r.K, r.D, assign, nil, useGemm, 1)
	return assign
}

func TestTrainRecoversBlobStructure(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	data, n := blobs(rng, 8, 100, 16, 20)
	for _, flavor := range []Flavor{FlavorFaiss, FlavorPASE} {
		res, err := Train(data, n, 16, Config{K: 8, Seed: 42, Flavor: flavor, UseGemm: true})
		if err != nil {
			t.Fatalf("%v: %v", flavor, err)
		}
		// With well separated blobs the mean within-cluster distance must
		// be far below the blob separation scale.
		assign := assignRows(res, data, n, true)
		var inertia float64
		for i := 0; i < n; i++ {
			inertia += float64(vec.L2Sqr(data[i*16:(i+1)*16], centroid(res, int(assign[i]))))
		}
		perPoint := inertia / float64(n)
		// Each point is its blob center + unit Gaussian noise in 16 dims,
		// so a perfect clustering gives per-point inertia ≈ 16. The faiss
		// flavour (k-means++ with empty-cluster splitting) should get
		// there; the pase flavour (random init, no repair) may leave a
		// blob uncovered — that skew is RC#5 — so its bound is loose.
		limit := 64.0
		if flavor == FlavorPASE {
			limit = 16 * 400 // still far better than unclustered data
		}
		if perPoint > limit {
			t.Errorf("%v: per-point inertia %v, limit %v", flavor, perPoint, limit)
		}
	}
}

func TestTrainDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	data, n := blobs(rng, 4, 50, 8, 10)
	a, err := Train(data, n, 8, Config{K: 4, Seed: 7, Flavor: FlavorFaiss})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(data, n, 8, Config{K: 4, Seed: 7, Flavor: FlavorFaiss})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Centroids {
		if a.Centroids[i] != b.Centroids[i] {
			t.Fatalf("same seed produced different centroids at %d", i)
		}
	}
}

func TestTrainFlavorsDiffer(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data, n := blobs(rng, 4, 100, 8, 5)
	a, err := Train(data, n, 8, Config{K: 16, Seed: 7, Flavor: FlavorFaiss})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(data, n, 8, Config{K: 16, Seed: 7, Flavor: FlavorPASE})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Centroids {
		if a.Centroids[i] != b.Centroids[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("RC#5: the two flavours must produce different centroids")
	}
}

func TestTrainGemmTogglePreservesQuality(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	data, n := blobs(rng, 6, 80, 12, 15)
	withGemm, err := Train(data, n, 12, Config{K: 6, Seed: 1, UseGemm: true})
	if err != nil {
		t.Fatal(err)
	}
	without, err := Train(data, n, 12, Config{K: 6, Seed: 1, UseGemm: false})
	if err != nil {
		t.Fatal(err)
	}
	// RC#1 is a performance toggle only: inertia must be comparable.
	ratio := float64(withGemm.Inertia) / float64(without.Inertia)
	if ratio < 0.5 || ratio > 2 {
		t.Errorf("gemm toggle changed quality: inertia ratio %v", ratio)
	}
}

func TestTrainErrors(t *testing.T) {
	data := make([]float32, 10*4)
	if _, err := Train(data, 10, 4, Config{K: 0}); err == nil {
		t.Error("accepted K=0")
	}
	if _, err := Train(data, 10, 4, Config{K: 11}); err == nil {
		t.Error("accepted K > n")
	}
	if _, err := Train(data, 9, 4, Config{K: 2}); err == nil {
		t.Error("accepted mismatched data length")
	}
}

func TestSampleRatioRespectsMinimum(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data, n := blobs(rng, 4, 500, 4, 10)
	// sr=0.001 of 2000 points is 2 — far below 40·K; trainer must still work.
	res, err := Train(data, n, 4, Config{K: 4, Seed: 1, SampleRatio: 0.001})
	if err != nil {
		t.Fatal(err)
	}
	if res.K != 4 || len(res.Centroids) != 16 {
		t.Errorf("unexpected result shape: K=%d len=%d", res.K, len(res.Centroids))
	}
}

func TestEmptyClusterSplitting(t *testing.T) {
	// Duplicate points force empty clusters under k-means++ with K near n.
	d := 4
	n := 64
	data := make([]float32, n*d)
	for i := 0; i < n; i++ {
		for j := 0; j < d; j++ {
			data[i*d+j] = float32(i % 4) // only 4 distinct points
		}
	}
	res, err := Train(data, n, d, Config{K: 8, Seed: 3, Flavor: FlavorFaiss})
	if err != nil {
		t.Fatal(err)
	}
	// Centroids must all be finite (splitting must not produce NaN).
	for i, c := range res.Centroids {
		if c != c {
			t.Fatalf("NaN centroid component at %d", i)
		}
	}
}

func TestAssignMatchesNearestCentroid(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	data, n := blobs(rng, 3, 40, 6, 12)
	res, err := Train(data, n, 6, Config{K: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	assign := assignRows(res, data, n, false)
	for i := 0; i < n; i++ {
		x := data[i*6 : (i+1)*6]
		best, bestD := 0, vec.L2SqrRef(x, centroid(res, 0))
		for c := 1; c < 3; c++ {
			if dd := vec.L2SqrRef(x, centroid(res, c)); dd < bestD {
				best, bestD = c, dd
			}
		}
		if int(assign[i]) != best {
			t.Fatalf("row %d assigned to %d, nearest is %d", i, assign[i], best)
		}
	}
}

func TestFlavorString(t *testing.T) {
	if FlavorFaiss.String() != "faiss" || FlavorPASE.String() != "pase" {
		t.Error("Flavor.String mismatch")
	}
}
