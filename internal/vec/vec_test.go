package vec

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool {
	if a == b {
		return true
	}
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*math.Max(scale, 1)
}

func randVec(rng *rand.Rand, d int) []float32 {
	v := make([]float32, d)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

func TestL2SqrMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, d := range []int{1, 2, 3, 4, 5, 7, 8, 96, 100, 128, 256, 960} {
		x, y := randVec(rng, d), randVec(rng, d)
		ref := float64(L2SqrRef(x, y))
		got := float64(L2Sqr(x, y))
		if !almostEqual(ref, got, 1e-5) {
			t.Errorf("d=%d: L2Sqr=%v, L2SqrRef=%v", d, got, ref)
		}
	}
}

func TestL2SqrZeroForIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := randVec(rng, 33)
	if got := L2Sqr(x, x); got != 0 {
		t.Errorf("L2Sqr(x,x) = %v, want 0", got)
	}
}

func TestL2SqrPropertyNonNegativeSymmetric(t *testing.T) {
	f := func(a, b [16]float32) bool {
		x, y := a[:], b[:]
		d1, d2 := L2Sqr(x, y), L2Sqr(y, x)
		return d1 >= 0 && d1 == d2
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDotMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, d := range []int{1, 5, 8, 127, 128} {
		x, y := randVec(rng, d), randVec(rng, d)
		var ref float64
		for i := range x {
			ref += float64(x[i]) * float64(y[i])
		}
		if got := float64(Dot(x, y)); !almostEqual(ref, got, 1e-4) {
			t.Errorf("d=%d: Dot=%v, naive=%v", d, got, ref)
		}
	}
}

func TestNormIdentities(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randVec(rng, 64)
	if got, want := float64(Norm2(x)), float64(Dot(x, x)); got != want {
		t.Errorf("Norm2 = %v, Dot(x,x) = %v", got, want)
	}
}

func TestArgmin(t *testing.T) {
	i, v := Argmin([]float32{3, 1, 2})
	if i != 1 || v != 1 {
		t.Errorf("Argmin = (%d, %v), want (1, 1)", i, v)
	}
	i, _ = Argmin([]float32{5})
	if i != 0 {
		t.Errorf("Argmin singleton = %d", i)
	}
}

func TestFlatBasics(t *testing.T) {
	f := NewFlat(3, 2)
	if f.N() != 0 {
		t.Fatalf("empty Flat N = %d", f.N())
	}
	f.Append([]float32{1, 2, 3})
	f.Append([]float32{4, 5, 6})
	if f.N() != 2 {
		t.Fatalf("N = %d, want 2", f.N())
	}
	if got := f.Row(1); got[0] != 4 || got[2] != 6 {
		t.Errorf("Row(1) = %v", got)
	}
	if f.Bytes() != 24 {
		t.Errorf("Bytes = %d, want 24", f.Bytes())
	}
	defer func() {
		if recover() == nil {
			t.Error("Append with wrong dimension did not panic")
		}
	}()
	f.Append([]float32{1})
}

func TestDistancesL2NaiveVsDecomposed(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	nx, ny, d := 17, 23, 48
	xs, ys := randVec(rng, nx*d), randVec(rng, ny*d)
	naive := make([]float32, nx*ny)
	distancesL2Naive(xs, nx, ys, ny, d, naive)
	for _, threads := range []int{1, 4} {
		dec := make([]float32, nx*ny)
		distancesL2Decomposed(xs, nx, ys, ny, d, dec, decomposedOpts{Threads: threads})
		for i := range naive {
			if !almostEqual(float64(naive[i]), float64(dec[i]), 1e-3) {
				t.Fatalf("threads=%d: pair %d: naive %v vs decomposed %v", threads, i, naive[i], dec[i])
			}
		}
	}
}

func TestDistancesL2DecomposedWithCachedNorms(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	nx, ny, d := 5, 9, 32
	xs, ys := randVec(rng, nx*d), randVec(rng, ny*d)
	norms := Norms2(ys, ny, d, make([]float32, ny))
	a := make([]float32, nx*ny)
	b := make([]float32, nx*ny)
	distancesL2Decomposed(xs, nx, ys, ny, d, a, decomposedOpts{Threads: 1})
	distancesL2Decomposed(xs, nx, ys, ny, d, b, decomposedOpts{Threads: 1, YNorms2: norms})
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("cached norms changed result at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestAssignBatchGemmMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n, k, d := 300, 11, 24
	xs := randVec(rng, n*d)
	cs := randVec(rng, k*d)
	for _, threads := range []int{1, 3} {
		a1 := make([]int32, n)
		a2 := make([]int32, n)
		AssignBatch(xs, n, cs, k, d, a1, nil, false, threads)
		AssignBatch(xs, n, cs, k, d, a2, nil, true, threads)
		for i := range a1 {
			if a1[i] != a2[i] {
				// Ties can flip under FP reordering; verify it is a tie.
				x := xs[i*d : (i+1)*d]
				d1 := L2SqrRef(x, cs[a1[i]*int32(d):(a1[i]+1)*int32(d)])
				d2 := L2SqrRef(x, cs[a2[i]*int32(d):(a2[i]+1)*int32(d)])
				if !almostEqual(float64(d1), float64(d2), 1e-4) {
					t.Fatalf("threads=%d row %d: naive→%d (%v), gemm→%d (%v)", threads, i, a1[i], d1, a2[i], d2)
				}
			}
		}
	}
}

func TestAssignBatchDists(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n, k, d := 50, 7, 16
	xs, cs := randVec(rng, n*d), randVec(rng, k*d)
	assign := make([]int32, n)
	dists := make([]float32, n)
	AssignBatch(xs, n, cs, k, d, assign, dists, true, 1)
	for i := 0; i < n; i++ {
		want := L2SqrRef(xs[i*d:(i+1)*d], cs[int(assign[i])*d:(int(assign[i])+1)*d])
		if !almostEqual(float64(dists[i]), float64(want), 1e-3) {
			t.Fatalf("row %d: dist %v, recomputed %v", i, dists[i], want)
		}
	}
}

func TestNorms2(t *testing.T) {
	data := []float32{3, 4, 0, 0, 1, 1}
	out := Norms2(data, 3, 2, make([]float32, 3))
	want := []float32{25, 0, 2}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("Norms2[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}
