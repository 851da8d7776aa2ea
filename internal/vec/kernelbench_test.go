package vec

import (
	"fmt"
	"math/rand"
	"testing"
)

// BenchmarkKernel* is the microbench surface the CI gate
// (cmd/kernelgate) watches: solo, rows-batch, page-segment (NTRows) and
// NT shapes for every registered kernel. Names are stable — the gate parses
// BenchmarkKernelSolo/<kernel>/d=<dim> etc. SetBytes records the
// traffic of reading both operands, so results print GB/s; the gate
// compares ratios against the ref kernel measured in the same run,
// which keeps the checked-in baseline machine-independent.

func benchVecs(n, d int) []float32 {
	rng := rand.New(rand.NewSource(9))
	out := make([]float32, n*d)
	for i := range out {
		out[i] = float32(rng.NormFloat64())
	}
	return out
}

func BenchmarkKernelSolo(b *testing.B) {
	for _, name := range RegisteredKernelNames() {
		k, _ := ForName(name)
		for _, d := range []int{128, 960} {
			b.Run(fmt.Sprintf("%s/d=%d", name, d), func(b *testing.B) {
				x := benchVecs(1, d)
				y := benchVecs(1, d)
				b.SetBytes(int64(2 * 4 * d))
				var sink float32
				for i := 0; i < b.N; i++ {
					sink += k.L2Sqr(x, y)
				}
				_ = sink
			})
		}
	}
}

func BenchmarkKernelRowsBatch(b *testing.B) {
	const rowsN = 256
	for _, name := range RegisteredKernelNames() {
		k, _ := ForName(name)
		for _, d := range []int{128, 960} {
			b.Run(fmt.Sprintf("%s/d=%d", name, d), func(b *testing.B) {
				flat := benchVecs(rowsN, d)
				rows := make([][]float32, rowsN)
				for i := range rows {
					rows[i] = flat[i*d : (i+1)*d]
				}
				q := benchVecs(1, d)
				out := make([]float32, rowsN)
				b.SetBytes(int64(2 * 4 * d * rowsN))
				for i := 0; i < b.N; i++ {
					k.L2SqrBatch(q, rows, out)
				}
			})
		}
	}
}

func BenchmarkKernelNTRows(b *testing.B) {
	// The flat scan's call: one index page of tuple rows (15 entries of
	// 128 floats fit an 8 KiB page) against the queries subscribed to the
	// bucket — one for a solo scan, a few for a coalesced batch.
	const m, d = 15, 128
	for _, name := range RegisteredKernelNames() {
		k, _ := ForName(name)
		for _, n := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/m=%d,n=%d,d=%d", name, m, n, d), func(b *testing.B) {
				flat := benchVecs(m, d)
				rows := make([][]float32, m)
				for i := range rows {
					rows[i] = flat[i*d : (i+1)*d]
				}
				qs := benchVecs(n, d)
				c := make([]float32, m*n)
				b.SetBytes(int64(4 * d * (m + n)))
				for i := 0; i < b.N; i++ {
					k.L2SqrNTRows(rows, d, qs, n, c)
				}
			})
		}
	}
}

func BenchmarkKernelNT(b *testing.B) {
	// The multi-query probe shape: a bucketful of tuples (m rows)
	// against a small batch of queries (n).
	const m, n = 256, 8
	for _, name := range RegisteredKernelNames() {
		k, _ := ForName(name)
		for _, d := range []int{128, 960} {
			b.Run(fmt.Sprintf("%s/d=%d", name, d), func(b *testing.B) {
				a := benchVecs(m, d)
				bm := benchVecs(n, d)
				c := make([]float32, m*n)
				b.SetBytes(int64(4 * d * (m + n)))
				for i := 0; i < b.N; i++ {
					k.L2SqrNT(a, m, d, bm, n, c)
				}
			})
		}
	}
}

func BenchmarkKernelSQ8(b *testing.B) {
	const rowsN = 256
	for _, name := range RegisteredKernelNames() {
		k, _ := ForName(name)
		for _, d := range []int{128, 960} {
			b.Run(fmt.Sprintf("%s/d=%d", name, d), func(b *testing.B) {
				flat := benchVecs(rowsN, d)
				tr := NewSQ8Trainer(d)
				for i := 0; i < rowsN; i++ {
					tr.Observe(flat[i*d : (i+1)*d])
				}
				sq := tr.Finish()
				codes := make([]byte, rowsN*d)
				for i := 0; i < rowsN; i++ {
					sq.Encode(flat[i*d:(i+1)*d], codes[i*d:(i+1)*d])
				}
				q := benchVecs(1, d)
				b.SetBytes(int64(rowsN * d * 5)) // 4B query float + 1B code
				var sink float32
				for i := 0; i < b.N; i++ {
					for r := 0; r < rowsN; r++ {
						sink += k.L2SqrSQ8(q, codes[r*d:(r+1)*d], sq)
					}
				}
				_ = sink
			})
		}
	}
}

func BenchmarkKernelSQ8Batch(b *testing.B) {
	// The direct page-batch asymmetric form — one kernel call for a
	// pageful of codes.
	const rowsN = 256
	for _, name := range RegisteredKernelNames() {
		k, _ := ForName(name)
		for _, d := range []int{128, 960} {
			b.Run(fmt.Sprintf("%s/d=%d", name, d), func(b *testing.B) {
				flat := benchVecs(rowsN, d)
				tr := NewSQ8Trainer(d)
				for i := 0; i < rowsN; i++ {
					tr.Observe(flat[i*d : (i+1)*d])
				}
				sq := tr.Finish()
				codes := make([][]byte, rowsN)
				for i := range codes {
					codes[i] = make([]byte, d)
					sq.Encode(flat[i*d:(i+1)*d], codes[i])
				}
				q := benchVecs(1, d)
				out := make([]float32, rowsN)
				b.SetBytes(int64(rowsN * d * 5))
				for i := 0; i < b.N; i++ {
					k.L2SqrSQ8Batch(q, codes, sq, out)
				}
			})
		}
	}
}

func BenchmarkKernelDotSQ8(b *testing.B) {
	// The decomposed plain-scan inner loop: a pageful of uint8 dot
	// products (the norms are precomputed outside the per-candidate
	// path, so this shape IS the per-candidate kernel cost).
	const rowsN = 256
	for _, name := range RegisteredKernelNames() {
		k, _ := ForName(name)
		for _, d := range []int{128, 960} {
			b.Run(fmt.Sprintf("%s/d=%d", name, d), func(b *testing.B) {
				w := benchVecs(1, d)
				codes := make([][]byte, rowsN)
				rng := rand.New(rand.NewSource(11))
				for i := range codes {
					codes[i] = make([]byte, d)
					rng.Read(codes[i])
				}
				out := make([]float32, rowsN)
				b.SetBytes(int64(rowsN * d)) // 1B code stream dominates
				for i := 0; i < b.N; i++ {
					k.DotSQ8Batch(w, codes, out)
				}
			})
		}
	}
}
