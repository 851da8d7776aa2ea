// Package kmeans implements the K-means trainers behind the IVF indexes.
//
// The paper's RC#5 observes that PASE and Faiss ship *different* K-means
// implementations, which produce different centroids and therefore
// different cluster-size distributions — and that alone changes IVF search
// time even when every other factor is equal (Fig 15). To reproduce that,
// this package provides two flavours:
//
//   - FlavorFaiss: k-means++ seeding, SGEMM-batched assignment, empty
//     cluster re-splitting, 20 Lloyd iterations. Produces well balanced
//     clusters.
//   - FlavorPASE: uniform random seeding, naive per-pair assignment, no
//     empty-cluster handling, 10 iterations. Produces noticeably more
//     skewed cluster sizes.
//
// The assignment step also honours the RC#1 toggle (UseGemm) and the RC#3
// toggle (Threads), because index construction time in Figs 3–6 and 9 is
// dominated by exactly this step.
package kmeans

import (
	"errors"
	"fmt"
	"math/rand"

	"vecstudy/internal/vec"
)

// Flavor selects which system's K-means behaviour to emulate.
type Flavor int

const (
	// FlavorFaiss emulates the Faiss trainer (k-means++, balanced).
	FlavorFaiss Flavor = iota
	// FlavorPASE emulates the PASE trainer (random init, fewer iterations).
	FlavorPASE
)

// String implements fmt.Stringer.
func (f Flavor) String() string {
	if f == FlavorPASE {
		return "pase"
	}
	return "faiss"
}

// Config parameterizes Train.
type Config struct {
	K           int     // number of centroids; required
	MaxIter     int     // Lloyd iterations; 0 means the flavour default (20 faiss / 10 pase)
	Seed        int64   // RNG seed; same seed + same config ⇒ identical centroids
	SampleRatio float64 // fraction of points used for training; 0 or ≥1 means all (paper default sr=0.01 at full scale)
	MinSample   int     // lower bound on the training sample, to keep tiny scaled datasets trainable; 0 = 4·K (the paper's sr=0.01 at 1M scale gives ~10 samples per cluster; this floor keeps the same regime at laptop scale)
	UseGemm     bool    // RC#1: batched SGEMM assignment vs naive loops
	Threads     int     // RC#3: parallelism of the assignment step; ≤1 serial
	Flavor      Flavor  // RC#5: which implementation to emulate
}

// Result holds the trained codebook.
type Result struct {
	Centroids []float32 // K×D row-major
	K, D      int
	Iters     int     // Lloyd iterations actually run
	Inertia   float32 // sum of squared distances at the last assignment
}

// Train runs Lloyd's algorithm over the n×d row-major matrix data.
func Train(data []float32, n, d int, cfg Config) (*Result, error) {
	if cfg.K <= 0 {
		return nil, errors.New("kmeans: K must be positive")
	}
	if n < cfg.K {
		return nil, fmt.Errorf("kmeans: %d points cannot form %d clusters", n, cfg.K)
	}
	if len(data) != n*d {
		return nil, fmt.Errorf("kmeans: data length %d != n*d = %d", len(data), n*d)
	}
	maxIter := cfg.MaxIter
	if maxIter <= 0 {
		if cfg.Flavor == FlavorPASE {
			maxIter = 10
		} else {
			maxIter = 20
		}
	}
	rng := rand.New(rand.NewSource(cfg.Seed))

	// Subsample the training set, as both systems do (paper parameter sr).
	train, tn := sample(data, n, d, cfg, rng)

	centroids := make([]float32, cfg.K*d)
	switch cfg.Flavor {
	case FlavorPASE:
		initRandom(train, tn, d, cfg.K, centroids, rng)
	default:
		initPlusPlus(train, tn, d, cfg.K, centroids, rng)
	}

	assign := make([]int32, tn)
	dists := make([]float32, tn)
	counts := make([]int, cfg.K)
	sums := make([]float64, cfg.K*d)

	res := &Result{Centroids: centroids, K: cfg.K, D: d}
	for iter := 0; iter < maxIter; iter++ {
		vec.AssignBatch(train, tn, centroids, cfg.K, d, assign, dists, cfg.UseGemm, cfg.Threads)
		var inertia float64
		for _, dd := range dists {
			inertia += float64(dd)
		}
		res.Inertia = float32(inertia)
		res.Iters = iter + 1

		for i := range counts {
			counts[i] = 0
		}
		for i := range sums {
			sums[i] = 0
		}
		for i := 0; i < tn; i++ {
			c := int(assign[i])
			counts[c]++
			row := train[i*d : (i+1)*d]
			acc := sums[c*d : (c+1)*d]
			for j, v := range row {
				acc[j] += float64(v)
			}
		}
		for c := 0; c < cfg.K; c++ {
			if counts[c] == 0 {
				continue
			}
			inv := 1 / float64(counts[c])
			dst := centroids[c*d : (c+1)*d]
			src := sums[c*d : (c+1)*d]
			for j := range dst {
				dst[j] = float32(src[j] * inv)
			}
		}
		if cfg.Flavor == FlavorFaiss {
			splitEmptyClusters(centroids, counts, cfg.K, d, rng)
		}
	}
	return res, nil
}

// sample returns the training subset according to SampleRatio, never going
// below MinSample (default 4·K) or above n.
func sample(data []float32, n, d int, cfg Config, rng *rand.Rand) ([]float32, int) {
	want := n
	if cfg.SampleRatio > 0 && cfg.SampleRatio < 1 {
		want = int(float64(n) * cfg.SampleRatio)
	}
	minSample := cfg.MinSample
	if minSample <= 0 {
		minSample = 4 * cfg.K
	}
	if want < minSample {
		want = minSample
	}
	if want >= n {
		return data, n
	}
	perm := rng.Perm(n)[:want]
	out := make([]float32, want*d)
	for i, p := range perm {
		copy(out[i*d:(i+1)*d], data[p*d:(p+1)*d])
	}
	return out, want
}

// initRandom seeds centroids by sampling K distinct points uniformly —
// the PASE behaviour.
func initRandom(data []float32, n, d, k int, centroids []float32, rng *rand.Rand) {
	perm := rng.Perm(n)[:k]
	for i, p := range perm {
		copy(centroids[i*d:(i+1)*d], data[p*d:(p+1)*d])
	}
}

// initPlusPlus seeds centroids with k-means++ (D² weighting) — the
var refKern = vec.Ref()

// better-spread initialization our Faiss flavour uses.
//
// Seeding arithmetic runs on the ref kernel: training must be
// reproducible across hosts and sessions, independent of which optimized
// kernels happen to be registered.
func initPlusPlus(data []float32, n, d, k int, centroids []float32, rng *rand.Rand) {
	first := rng.Intn(n)
	copy(centroids[:d], data[first*d:(first+1)*d])
	minDist := make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		dd := float64(refKern.L2Sqr(data[i*d:(i+1)*d], centroids[:d]))
		minDist[i] = dd
		total += dd
	}
	for c := 1; c < k; c++ {
		var chosen int
		if total <= 0 {
			chosen = rng.Intn(n)
		} else {
			target := rng.Float64() * total
			var cum float64
			chosen = n - 1
			for i, dd := range minDist {
				cum += dd
				if cum >= target {
					chosen = i
					break
				}
			}
		}
		dst := centroids[c*d : (c+1)*d]
		copy(dst, data[chosen*d:(chosen+1)*d])
		if c == k-1 {
			break
		}
		total = 0
		for i := 0; i < n; i++ {
			dd := float64(refKern.L2Sqr(data[i*d:(i+1)*d], dst))
			if dd < minDist[i] {
				minDist[i] = dd
			}
			total += minDist[i]
		}
	}
}

// splitEmptyClusters reassigns each empty centroid to a perturbed copy of
// the centroid with the largest population, as Faiss does, so no bucket
// stays dead across iterations.
func splitEmptyClusters(centroids []float32, counts []int, k, d int, rng *rand.Rand) {
	for c := 0; c < k; c++ {
		if counts[c] > 0 {
			continue
		}
		biggest := 0
		for j := 1; j < k; j++ {
			if counts[j] > counts[biggest] {
				biggest = j
			}
		}
		if counts[biggest] < 2 {
			return
		}
		src := centroids[biggest*d : (biggest+1)*d]
		dst := centroids[c*d : (c+1)*d]
		const eps = 1.0 / 1024
		for j := range dst {
			sign := float32(1)
			if rng.Intn(2) == 0 {
				sign = -1
			}
			dst[j] = src[j] * (1 + sign*eps)
		}
		counts[c] = counts[biggest] / 2
		counts[biggest] -= counts[c]
	}
}
