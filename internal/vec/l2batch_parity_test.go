package vec

import (
	"math/rand"
	"testing"

	"vecstudy/internal/blas"
)

// TestBlasL2SqrNTMatchesL2SqrRef pins the contract the ref kernel's
// batched scan depends on: blas.L2SqrNTRows must be bit-for-bit equal
// to the per-pair L2SqrRef kernel the solo paths score with, for every
// batch size; m covers the 8-row, 4-row and 1-row bodies. (The blas
// package cannot import vec — vec imports blas — so the cross-kernel
// assertion lives here.)
func TestBlasL2SqrNTMatchesL2SqrRef(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, m := range []int{1, 3, 4, 7, 8, 9, 17} {
		for _, k := range []int{1, 96, 130} {
			const n = 37
			a := make([]float32, m*k)
			b := make([]float32, n*k)
			for i := range a {
				a[i] = rng.Float32()*2 - 1
			}
			for i := range b {
				b[i] = rng.Float32()*2 - 1
			}
			rows := make([][]float32, m)
			for i := range rows {
				rows[i] = a[i*k:]
			}
			c := make([]float32, m*n)
			blas.L2SqrNTRows(rows, k, b, n, c)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					want := L2SqrRef(a[i*k:(i+1)*k], b[j*k:(j+1)*k])
					if c[i*n+j] != want {
						t.Fatalf("m=%d k=%d: C[%d][%d] = %x, L2SqrRef = %x", m, k, i, j, c[i*n+j], want)
					}
				}
			}
		}
	}
}
