// Package vec provides the low-level float32 vector kernels shared by both
// engines in this study: distance functions, norms, and batched distance
// computation.
//
// Two styles of kernel are provided on purpose, because the paper's RC#1
// and RC#5 hinge on the difference between them:
//
//   - "reference" kernels (L2SqrRef) are straightforward scalar loops,
//     mirroring PASE's fvec_L2sqr_ref;
//   - "optimized" kernels (L2Sqr, the private decomposed path behind
//     AssignBatch) use loop unrolling and the ‖x−c‖² = ‖x‖² + ‖c‖² − 2·x·c
//     decomposition with batched matrix multiplication, mirroring Faiss.
//
// Search-path code does not call these directly: every bucket scan and
// probe selection dispatches through the Kernel interface (kernel.go),
// selectable per session with SET distance_kernel.
package vec

import (
	"fmt"
)

// L2SqrRef computes squared Euclidean distance with a plain scalar loop.
// This is the PASE-style reference kernel (fvec_L2sqr_ref in the paper);
// it is deliberately not unrolled.
func L2SqrRef(x, y []float32) float32 {
	var s float32
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return s
}

// L2Sqr computes squared Euclidean distance with a 4-way unrolled loop,
// the Faiss-style scalar kernel. The compiler keeps the four partial sums
// in registers, which roughly doubles throughput over L2SqrRef on
// dimensionalities used in the paper (96–960).
func L2Sqr(x, y []float32) float32 {
	var s0, s1, s2, s3 float32
	n := len(x)
	i := 0
	for ; i+4 <= n; i += 4 {
		d0 := x[i] - y[i]
		d1 := x[i+1] - y[i+1]
		d2 := x[i+2] - y[i+2]
		d3 := x[i+3] - y[i+3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < n; i++ {
		d := x[i] - y[i]
		s0 += d * d
	}
	return s0 + s1 + s2 + s3
}

// Dot computes the inner product of x and y with a 4-way unrolled loop.
func Dot(x, y []float32) float32 {
	var s0, s1, s2, s3 float32
	n := len(x)
	i := 0
	for ; i+4 <= n; i += 4 {
		s0 += x[i] * y[i]
		s1 += x[i+1] * y[i+1]
		s2 += x[i+2] * y[i+2]
		s3 += x[i+3] * y[i+3]
	}
	for ; i < n; i++ {
		s0 += x[i] * y[i]
	}
	return s0 + s1 + s2 + s3
}

// Norm2 returns the squared L2 norm of x.
func Norm2(x []float32) float32 { return Dot(x, x) }

// Norms2 computes the squared norms of n row vectors stored contiguously in
// data (row-major, d columns), writing them into out. out must have length
// ≥ n. It returns out[:n].
func Norms2(data []float32, n, d int, out []float32) []float32 {
	out = out[:n]
	for i := 0; i < n; i++ {
		out[i] = Norm2(data[i*d : (i+1)*d])
	}
	return out
}

// Argmin returns the index of the smallest element of xs and its value.
// It panics if xs is empty.
func Argmin(xs []float32) (int, float32) {
	best, bestVal := 0, xs[0]
	for i, v := range xs[1:] {
		if v < bestVal {
			best, bestVal = i+1, v
		}
	}
	return best, bestVal
}

// Flat is a dense row-major matrix of float32 vectors, the in-memory
// storage format used by the specialized engine.
type Flat struct {
	D    int       // dimensionality of each row
	Data []float32 // len(Data) == N()*D
}

// NewFlat allocates a Flat with capacity for n d-dimensional rows.
func NewFlat(d, n int) *Flat {
	return &Flat{D: d, Data: make([]float32, 0, n*d)}
}

// N returns the number of rows currently stored.
func (f *Flat) N() int {
	if f.D == 0 {
		return 0
	}
	return len(f.Data) / f.D
}

// Row returns the i-th row. The returned slice aliases the matrix storage.
func (f *Flat) Row(i int) []float32 { return f.Data[i*f.D : (i+1)*f.D] }

// Append copies one row into the matrix. It panics if len(x) != D.
func (f *Flat) Append(x []float32) {
	if len(x) != f.D {
		panic(fmt.Sprintf("vec: appending %d-dim row to %d-dim Flat", len(x), f.D))
	}
	f.Data = append(f.Data, x...)
}

// Bytes returns the in-memory footprint of the matrix payload.
func (f *Flat) Bytes() int64 { return int64(len(f.Data)) * 4 }
