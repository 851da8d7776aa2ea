// Package blas provides a pure-Go substitute for the BLAS SGEMM routine
// used by Faiss (paper RC#1). Faiss links against an optimized BLAS (MKL or
// OpenBLAS); this package implements the same interface contract —
// C = alpha·A·Bᵀ + beta·C for row-major float32 matrices — with cache
// blocking, inner-loop unrolling, and optional goroutine parallelism.
//
// The absolute speedup over the naive loop is smaller than MKL's over
// naive C, but the *relationship* the paper measures is preserved: batched
// blocked multiplication with norm reuse dominates per-pair scalar
// distance loops, and the gap grows with the number of centroids.
package blas

import (
	"runtime"
	"sync"
)

// block sizes chosen so one (mc×kc) A-panel plus one (kc×nc) B-panel fit
// comfortably in L2 cache (≈ 256 KiB of float32).
const (
	blockM = 64
	blockN = 64
	blockK = 256
)

// GemmNT computes C = A · Bᵀ where A is (m×k), B is (n×k), and C is (m×n),
// all row-major and contiguous. This "NT" shape is the one vector search
// needs: rows of A are data points, rows of B are centroids, and C[i][j]
// becomes the inner product x_i · c_j.
//
// C is fully overwritten.
func GemmNT(a []float32, m, k int, b []float32, n int, c []float32) {
	if m == 0 || n == 0 {
		return
	}
	for i := range c[:m*n] {
		c[i] = 0
	}
	for k0 := 0; k0 < k; k0 += blockK {
		kend := min(k0+blockK, k)
		for i0 := 0; i0 < m; i0 += blockM {
			iend := min(i0+blockM, m)
			for j0 := 0; j0 < n; j0 += blockN {
				jend := min(j0+blockN, n)
				gemmBlock(a, b, c, k, n, i0, iend, j0, jend, k0, kend)
			}
		}
	}
}

// gemmBlock multiplies one cache-resident block, accumulating into C.
// The micro-kernel computes a 4×2 tile of C with eight independent
// accumulator chains: four A rows share each B load, halving memory
// traffic relative to a row-at-a-time kernel while keeping the FP
// pipeline busy without SIMD intrinsics.
func gemmBlock(a, b, c []float32, k, n, i0, iend, j0, jend, k0, kend int) {
	kk := kend - k0
	i := i0
	for ; i+4 <= iend; i += 4 {
		a0 := a[i*k+k0 : i*k+kend : i*k+kend]
		a1 := a[(i+1)*k+k0 : (i+1)*k+kend : (i+1)*k+kend]
		a2 := a[(i+2)*k+k0 : (i+2)*k+kend : (i+2)*k+kend]
		a3 := a[(i+3)*k+k0 : (i+3)*k+kend : (i+3)*k+kend]
		for j := j0; j < jend; j += 2 {
			if j+2 > jend {
				b0 := b[j*k+k0 : j*k+kend : j*k+kend]
				var s0, s1, s2, s3 float32
				for p := 0; p < kk; p++ {
					bv := b0[p]
					s0 += a0[p] * bv
					s1 += a1[p] * bv
					s2 += a2[p] * bv
					s3 += a3[p] * bv
				}
				c[i*n+j] += s0
				c[(i+1)*n+j] += s1
				c[(i+2)*n+j] += s2
				c[(i+3)*n+j] += s3
				break
			}
			b0 := b[j*k+k0 : j*k+kend : j*k+kend]
			b1 := b[(j+1)*k+k0 : (j+1)*k+kend : (j+1)*k+kend]
			var s00, s01, s10, s11, s20, s21, s30, s31 float32
			for p := 0; p < kk; p++ {
				bv0, bv1 := b0[p], b1[p]
				av0, av1, av2, av3 := a0[p], a1[p], a2[p], a3[p]
				s00 += av0 * bv0
				s01 += av0 * bv1
				s10 += av1 * bv0
				s11 += av1 * bv1
				s20 += av2 * bv0
				s21 += av2 * bv1
				s30 += av3 * bv0
				s31 += av3 * bv1
			}
			c[i*n+j] += s00
			c[i*n+j+1] += s01
			c[(i+1)*n+j] += s10
			c[(i+1)*n+j+1] += s11
			c[(i+2)*n+j] += s20
			c[(i+2)*n+j+1] += s21
			c[(i+3)*n+j] += s30
			c[(i+3)*n+j+1] += s31
		}
	}
	// Remainder rows: simple 1×1 kernel with a 2-deep unroll.
	for ; i < iend; i++ {
		arow := a[i*k+k0 : i*k+kend : i*k+kend]
		crow := c[i*n : i*n+n]
		for j := j0; j < jend; j++ {
			brow := b[j*k+k0 : j*k+kend : j*k+kend]
			var s0, s1 float32
			p := 0
			for ; p+2 <= kk; p += 2 {
				s0 += arow[p] * brow[p]
				s1 += arow[p+1] * brow[p+1]
			}
			if p < kk {
				s0 += arow[p] * brow[p]
			}
			crow[j] += s0 + s1
		}
	}
}

// GemmNTParallel is GemmNT with the rows of A partitioned across nthreads
// goroutines. nthreads ≤ 0 means use all CPUs.
func GemmNTParallel(a []float32, m, k int, b []float32, n int, c []float32, nthreads int) {
	if nthreads <= 0 {
		nthreads = runtime.GOMAXPROCS(0)
	}
	if nthreads == 1 || m < 2*blockM {
		GemmNT(a, m, k, b, n, c)
		return
	}
	rowsPer := (m + nthreads - 1) / nthreads
	var wg sync.WaitGroup
	for t := 0; t < nthreads; t++ {
		lo := t * rowsPer
		if lo >= m {
			break
		}
		hi := min(lo+rowsPer, m)
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			GemmNT(a[lo*k:hi*k], hi-lo, k, b, n, c[lo*n:hi*n])
		}(lo, hi)
	}
	wg.Wait()
}

// GemmNTRef is the unblocked triple loop, used by tests as an oracle for
// the blocked implementation.
//
//vetvec:test-probe oracle for the blocked GemmNT in the blas tests
func GemmNTRef(a []float32, m, k int, b []float32, n int, c []float32) {
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			var s float32
			for p := 0; p < k; p++ {
				s += a[i*k+p] * b[j*k+p]
			}
			c[i*n+j] = s
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
