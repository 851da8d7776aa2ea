package blas

// L2SqrNTRows computes the full m×n matrix of *exact* squared Euclidean
// distances between rows (m rows of k floats, e.g. tuple views that
// alias pinned pages) and the rows of B (n×k), row-major:
// C[i*n+j] = ‖rows_i − b_j‖². The rows are scored where they lie, never
// copied into a contiguous scratch matrix.
//
// The traversal order is SGEMM-shaped — eight (then four) A rows share
// every B load — but each (i, j) pair is still summed by ONE sequential
// accumulator chain over the k dimensions. That makes every C entry
// bit-for-bit equal to vec.L2SqrRef(rows_i, b_j) regardless of m, which
// is what lets a batched scan promise results byte-identical to solo
// execution. (GemmNT itself cannot be used here: its ‖x‖²+‖c‖²−2x·c
// decomposition and its kernel-dependent summation orders both change
// the rounding.)
func L2SqrNTRows(rows [][]float32, k int, b []float32, n int, c []float32) {
	m := len(rows)
	if m == 0 || n == 0 {
		return
	}
	i := 0
	for ; i+8 <= m; i += 8 {
		a0 := rows[i][:k:k]
		a1 := rows[i+1][:k:k]
		a2 := rows[i+2][:k:k]
		a3 := rows[i+3][:k:k]
		a4 := rows[i+4][:k:k]
		a5 := rows[i+5][:k:k]
		a6 := rows[i+6][:k:k]
		a7 := rows[i+7][:k:k]
		for j := 0; j < n; j++ {
			brow := b[j*k : j*k+k : j*k+k]
			var s0, s1, s2, s3, s4, s5, s6, s7 float32
			for p := 0; p < k; p++ {
				bv := brow[p]
				d0 := a0[p] - bv
				d1 := a1[p] - bv
				d2 := a2[p] - bv
				d3 := a3[p] - bv
				s0 += d0 * d0
				s1 += d1 * d1
				s2 += d2 * d2
				s3 += d3 * d3
				d4 := a4[p] - bv
				d5 := a5[p] - bv
				d6 := a6[p] - bv
				d7 := a7[p] - bv
				s4 += d4 * d4
				s5 += d5 * d5
				s6 += d6 * d6
				s7 += d7 * d7
			}
			c[i*n+j] = s0
			c[(i+1)*n+j] = s1
			c[(i+2)*n+j] = s2
			c[(i+3)*n+j] = s3
			c[(i+4)*n+j] = s4
			c[(i+5)*n+j] = s5
			c[(i+6)*n+j] = s6
			c[(i+7)*n+j] = s7
		}
	}
	for ; i+4 <= m; i += 4 {
		a0 := rows[i][:k:k]
		a1 := rows[i+1][:k:k]
		a2 := rows[i+2][:k:k]
		a3 := rows[i+3][:k:k]
		for j := 0; j < n; j++ {
			brow := b[j*k : j*k+k : j*k+k]
			var s0, s1, s2, s3 float32
			for p := 0; p < k; p++ {
				bv := brow[p]
				d0 := a0[p] - bv
				d1 := a1[p] - bv
				d2 := a2[p] - bv
				d3 := a3[p] - bv
				s0 += d0 * d0
				s1 += d1 * d1
				s2 += d2 * d2
				s3 += d3 * d3
			}
			c[i*n+j] = s0
			c[(i+1)*n+j] = s1
			c[(i+2)*n+j] = s2
			c[(i+3)*n+j] = s3
		}
	}
	for ; i < m; i++ {
		arow := rows[i][:k:k]
		for j := 0; j < n; j++ {
			brow := b[j*k : j*k+k : j*k+k]
			var s float32
			for p := 0; p < k; p++ {
				d := arow[p] - brow[p]
				s += d * d
			}
			c[i*n+j] = s
		}
	}
}
