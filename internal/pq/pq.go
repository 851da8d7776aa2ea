// Package pq implements product quantization (Jégou et al.), the
// compression layer inside IVF_PQ: each d-dimensional vector is split
// into M sub-vectors of d/M dimensions, and each sub-vector is encoded as
// the index of its nearest codeword in a per-subspace codebook of KSub
// entries, so a vector costs M·log2(KSub) bits (M bytes at the paper's
// default c_pq = 256).
//
// Both engines share this quantizer; what differs between them — the
// paper's RC#7 — is how the query-time distance table is computed, which
// lives in the respective index packages.
package pq

import (
	"errors"
	"fmt"

	"vecstudy/internal/kmeans"
	"vecstudy/internal/vec"
)

// Quantizer holds the trained per-subspace codebooks.
type Quantizer struct {
	D    int // full dimensionality
	M    int // number of subspaces (paper parameter m)
	KSub int // codewords per subspace (paper parameter c_pq, ≤ 256)
	DSub int // D / M

	// Codebooks is laid out as M × KSub × DSub, row-major.
	Codebooks []float32
}

// Config parameterizes Train.
type Config struct {
	M       int // required; must divide D
	KSub    int // 0 defaults to 256
	Seed    int64
	UseGemm bool
	Threads int
	Flavor  kmeans.Flavor
}

// Train builds the codebooks from the n×d row-major training matrix.
func Train(data []float32, n, d int, cfg Config) (*Quantizer, error) {
	if cfg.M <= 0 {
		return nil, errors.New("pq: M must be positive")
	}
	if d%cfg.M != 0 {
		return nil, fmt.Errorf("pq: dimension %d not divisible by M=%d", d, cfg.M)
	}
	ksub := cfg.KSub
	if ksub == 0 {
		ksub = 256
	}
	if ksub > 256 {
		return nil, fmt.Errorf("pq: KSub=%d exceeds one-byte codes", ksub)
	}
	if n < ksub {
		return nil, fmt.Errorf("pq: %d training points for %d codewords", n, ksub)
	}
	dsub := d / cfg.M
	q := &Quantizer{D: d, M: cfg.M, KSub: ksub, DSub: dsub, Codebooks: make([]float32, cfg.M*ksub*dsub)}

	// Train one K-means per subspace over the sliced training data.
	sub := make([]float32, n*dsub)
	for m := 0; m < cfg.M; m++ {
		for i := 0; i < n; i++ {
			copy(sub[i*dsub:(i+1)*dsub], data[i*d+m*dsub:i*d+(m+1)*dsub])
		}
		res, err := kmeans.Train(sub, n, dsub, kmeans.Config{
			K:       ksub,
			Seed:    cfg.Seed + int64(m)*7919,
			UseGemm: cfg.UseGemm,
			Threads: cfg.Threads,
			Flavor:  cfg.Flavor,
		})
		if err != nil {
			return nil, fmt.Errorf("pq: subspace %d: %w", m, err)
		}
		copy(q.Codebooks[m*ksub*dsub:(m+1)*ksub*dsub], res.Centroids)
	}
	return q, nil
}

// Codeword returns codeword j of subspace m (aliasing internal storage).
func (q *Quantizer) Codeword(m, j int) []float32 {
	base := (m*q.KSub + j) * q.DSub
	return q.Codebooks[base : base+q.DSub]
}

// refKern pins codeword assignment and naive table construction to the
// ref kernel: codes written at build time must not depend on which
// optimized kernels this host registered.
var refKern = vec.Ref()

// Encode writes the M-byte code of x into code. Both slices must have the
// right lengths (len(x)=D, len(code)=M).
func (q *Quantizer) Encode(x []float32, code []byte) {
	for m := 0; m < q.M; m++ {
		sub := x[m*q.DSub : (m+1)*q.DSub]
		best, bestD := 0, refKern.L2Sqr(sub, q.Codeword(m, 0))
		for j := 1; j < q.KSub; j++ {
			d := refKern.L2Sqr(sub, q.Codeword(m, j))
			if d < bestD {
				best, bestD = j, d
			}
		}
		code[m] = byte(best)
	}
}

// Decode reconstructs the approximate vector for code into out.
func (q *Quantizer) Decode(code []byte, out []float32) {
	for m := 0; m < q.M; m++ {
		copy(out[m*q.DSub:(m+1)*q.DSub], q.Codeword(m, int(code[m])))
	}
}

// CodewordNorms returns ‖p_mj‖² for every (m, j) as an M×KSub row-major
// table. Faiss computes this once at train time; its absence in PASE is
// part of RC#7.
func (q *Quantizer) CodewordNorms() []float32 {
	out := make([]float32, q.M*q.KSub)
	for m := 0; m < q.M; m++ {
		for j := 0; j < q.KSub; j++ {
			out[m*q.KSub+j] = vec.Norm2(q.Codeword(m, j))
		}
	}
	return out
}

// DistanceTableNaive fills tab (M×KSub) with ‖x_m − p_mj‖² using plain
// scalar loops — the PASE-style per-query, per-list computation.
func (q *Quantizer) DistanceTableNaive(x []float32, tab []float32) {
	for m := 0; m < q.M; m++ {
		sub := x[m*q.DSub : (m+1)*q.DSub]
		row := tab[m*q.KSub : (m+1)*q.KSub]
		for j := 0; j < q.KSub; j++ {
			row[j] = refKern.L2Sqr(sub, q.Codeword(m, j))
		}
	}
}

// InnerProductTable fills tab (M×KSub) with x_m · p_mj. Combined with
// cached codeword norms this is the optimized (Faiss-style) table path:
// ‖x_m − p_mj‖² = ‖x_m‖² + ‖p_mj‖² − 2·x_m·p_mj, where the query-norm
// term is constant per subspace and cancels in argmin/topk within a list.
func (q *Quantizer) InnerProductTable(x []float32, tab []float32) {
	for m := 0; m < q.M; m++ {
		sub := x[m*q.DSub : (m+1)*q.DSub]
		row := tab[m*q.KSub : (m+1)*q.KSub]
		cb := q.Codebooks[m*q.KSub*q.DSub : (m+1)*q.KSub*q.DSub]
		for j := 0; j < q.KSub; j++ {
			row[j] = vec.Dot(sub, cb[j*q.DSub:(j+1)*q.DSub])
		}
	}
}

// SizeBytes returns the codebook footprint.
func (q *Quantizer) SizeBytes() int64 { return int64(len(q.Codebooks)) * 4 }
