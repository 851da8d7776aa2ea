package blas

import (
	"math/rand"
	"testing"
)

// l2SqrRefOracle mirrors vec.L2SqrRef's plain sequential loop (vec
// imports blas, so the real kernel cannot be imported here; the
// cross-package bitwise assertion lives in internal/vec's tests).
func l2SqrRefOracle(x, y []float32) float32 {
	var s float32
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return s
}

// rowViews returns m full-capacity views into the row-major matrix a:
// each view runs to the end of a, the way a tuple view of a pinned page
// extends past its vector.
func rowViews(a []float32, m, k int) [][]float32 {
	rows := make([][]float32, m)
	for i := range rows {
		rows[i] = a[i*k:]
	}
	return rows
}

// TestL2SqrNTBitwiseEqualsRef is the parity contract of the batched
// scan: every entry of the distance matrix must be bit-for-bit equal to
// the per-pair reference kernel. m covers the 8-row, 4-row and 1-row
// bodies and their mixes.
func TestL2SqrNTBitwiseEqualsRef(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, m := range []int{1, 3, 4, 7, 8, 9, 17} {
		for _, n := range []int{1, 3, 16, 65} {
			for _, k := range []int{1, 7, 96, 257, 300} {
				a := randMatRC(rng, m, k)
				b := randMatRC(rng, n, k)
				c := make([]float32, m*n)
				L2SqrNTRows(rowViews(a, m, k), k, b, n, c)
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						want := l2SqrRefOracle(a[i*k:(i+1)*k], b[j*k:(j+1)*k])
						if got := c[i*n+j]; got != want {
							t.Fatalf("m=%d n=%d k=%d: C[%d][%d] = %x, L2SqrRef = %x (must be bitwise equal)",
								m, n, k, i, j, got, want)
						}
					}
				}
			}
		}
	}
}

// TestL2SqrNTBatchSizeIndependent pins the property a batched scan
// relies on: the row for one tuple does not depend on which other rows
// share its call.
func TestL2SqrNTBatchSizeIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, k = 33, 128
	b := randMatRC(rng, n, k)
	q := randMatRC(rng, 1, k)
	solo := make([]float32, n)
	L2SqrNTRows([][]float32{q}, k, b, n, solo)
	for _, m := range []int{2, 4, 9, 32} {
		a := randMatRC(rng, m, k)
		copy(a[(m/2)*k:], q) // plant the row mid-batch
		c := make([]float32, m*n)
		L2SqrNTRows(rowViews(a, m, k), k, b, n, c)
		for j := 0; j < n; j++ {
			if c[(m/2)*n+j] != solo[j] {
				t.Fatalf("m=%d: batched row differs from solo at j=%d: %x vs %x", m, j, c[(m/2)*n+j], solo[j])
			}
		}
	}
}

// TestL2SqrNTRowsMatchesFlat pins views that carry trailing capacity,
// like pinned-page tuple views do, to exact-length rows of the flat
// matrix, bit for bit, across every unroll block (8/4/remainder).
func TestL2SqrNTRowsMatchesFlat(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, m := range []int{1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17, 31} {
		for _, n := range []int{1, 2, 5, 16} {
			for _, k := range []int{1, 4, 96, 128, 130} {
				a := randMatRC(rng, m, k)
				b := randMatRC(rng, n, k)
				exact := make([][]float32, m)
				for i := range exact {
					exact[i] = a[i*k : (i+1)*k : (i+1)*k]
				}
				flat := make([]float32, m*n)
				L2SqrNTRows(exact, k, b, n, flat)
				got := make([]float32, m*n)
				L2SqrNTRows(rowViews(a, m, k), k, b, n, got)
				for i := range flat {
					if got[i] != flat[i] {
						t.Fatalf("m=%d n=%d k=%d: entry %d differs: %x vs %x", m, n, k, i, got[i], flat[i])
					}
				}
			}
		}
	}
}

func TestL2SqrNTEmpty(t *testing.T) {
	L2SqrNTRows(nil, 8, nil, 0, nil) // must not panic
	L2SqrNTRows([][]float32{make([]float32, 8)}, 8, nil, 0, nil)
}

func randMatRC(rng *rand.Rand, rows, cols int) []float32 {
	m := make([]float32, rows*cols)
	for i := range m {
		m[i] = rng.Float32()*2 - 1
	}
	return m
}

func BenchmarkL2SqrNTRows(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const m, n, k = 32, 1024, 128
	rows := rowViews(randMatRC(rng, m, k), m, k)
	bm := randMatRC(rng, n, k)
	c := make([]float32, m*n)
	b.SetBytes(int64(m) * int64(n) * int64(k) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		L2SqrNTRows(rows, k, bm, n, c)
	}
}

func BenchmarkL2SqrRefLoop(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const m, n, k = 32, 1024, 128
	a := randMatRC(rng, m, k)
	bm := randMatRC(rng, n, k)
	c := make([]float32, m*n)
	b.SetBytes(int64(m) * int64(n) * int64(k) * 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for qi := 0; qi < m; qi++ {
			for j := 0; j < n; j++ {
				c[qi*n+j] = l2SqrRefOracle(a[qi*k:(qi+1)*k], bm[j*k:(j+1)*k])
			}
		}
	}
}
