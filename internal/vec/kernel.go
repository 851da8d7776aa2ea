// Kernel dispatch: every distance computation in the engine flows
// through one of the registered Kernel implementations. The paper's
// RC#5 shows the distance kernel dominating every PostgreSQL search
// path; this file gives the codebase exactly one seam to optimize it.
//
// Three implementations register here:
//
//   - "ref": the PASE-style scalar baseline (fvec_L2sqr_ref). Its solo
//     form is one sequential accumulator chain, and its batched form
//     (blas.L2SqrNTRows) is proven bit-equal to that chain per pair. It is the parity oracle for tests and the fixed kernel for
//     paths that must be session-independent (bucket assignment).
//   - "unrolled": cache-blocked 8-way unrolled generic Go. Eight
//     independent accumulator chains hide FP add latency.
//   - "avx2": Go assembly under an amd64 build tag with a runtime CPUID
//     feature check (see kernel_avx2_amd64.go); on other platforms or
//     older CPUs the name resolves to the default kernel.
//
// The default — what a session starts on and what Default returns — is
// the best kernel the host registered: avx2 where the probe passes,
// unrolled elsewhere (kernelPreference).
//
// The parity contract is per kernel, not across kernels: for any
// kernel K, K's batched forms (L2SqrBatch, L2SqrNTRows) are
// bit-for-bit equal, pair by pair, to K.L2Sqr — and K.L2Sqr(x, y) ==
// K.L2Sqr(y, x) bitwise (IEEE subtraction is sign-symmetric and
// x·x == (−x)·(−x)), which the multi-query probe path relies on when it
// transposes tuples and queries. Different kernels sum in different
// orders and so round differently; only "ref" is bit-equal to the
// sequential reference sum. The batch coalescer's byte-identical
// promise therefore holds under every kernel, because a batch group
// never mixes kernels (distance_kernel is part of the group key).
package vec

import (
	"fmt"
	"slices"
	"sync"

	"vecstudy/internal/blas"
)

// Kernel is the distance-computation interface. All methods compute
// squared Euclidean (L2) distance; x, y, q and every row must share one
// dimensionality.
type Kernel interface {
	// Name reports the kernel's registered name.
	Name() string
	// L2Sqr returns ‖x−y‖².
	L2Sqr(x, y []float32) float32
	// L2SqrBatch writes ‖q−rows[i]‖² into out[i] for every row. rows may
	// alias pinned page memory; no row is retained or copied.
	L2SqrBatch(q []float32, rows [][]float32, out []float32)
	// L2SqrNTRows writes the full m×n matrix C[i*n+j] = ‖rows_i − b_j‖²
	// for m row views of k floats (zero-copy scoring of tuples that
	// alias pinned pages) and row-major B (n×k).
	L2SqrNTRows(rows [][]float32, k int, b []float32, n int, c []float32)
	// L2SqrSQ8 returns the asymmetric ‖q − decode(code)‖² distance
	// between a full-precision query and an SQ8 byte-coded vector,
	// decoding on the fly against the quantizer's per-dimension grid.
	L2SqrSQ8(q []float32, code []byte, sq *SQ8) float32
	// L2SqrSQ8Batch writes L2SqrSQ8(q, codes[i], sq) into out[i] for
	// every code, bit-identically to the solo form (the same contract
	// L2SqrBatch has with L2Sqr). It is the direct page-batch form of the
	// asymmetric distance; plain index scans score pages through the
	// cheaper decomposed DotSQ8Batch + stored code norms instead, and the
	// parity suite anchors that decomposition against this form. codes
	// may alias pinned page memory; no code is retained or copied.
	L2SqrSQ8Batch(q []float32, codes [][]byte, sq *SQ8, out []float32)
	// DotSQ8Batch writes Σ_j w[j]·float32(codes[i][j]) into out[i] for
	// every code — the inner-product half of the decomposed asymmetric
	// distance (see SQ8.DecomposeQuery); the caller reassembles
	// ‖u‖² − 2·out[i] + norm_i from its precomputed norms. out[i] is a
	// pure function of (w, codes[i]): batch composition never affects a
	// lane, so any two walks that hand the same page of codes to the
	// same kernel score identically. Reduction order is per-kernel, as
	// with L2Sqr. codes may alias pinned page memory.
	DotSQ8Batch(w []float32, codes [][]byte, out []float32)
}

var (
	kernelMu sync.RWMutex
	kernels  = make(map[string]Kernel)
)

// kernelPreference lists every kernel name, fastest first. These are the
// names SET distance_kernel accepts on every host, whether or not the
// host registers them (a session script recorded on an AVX2 machine must
// replay on one without it), and the first one registered is the default.
var kernelPreference = []string{"avx2", "unrolled", "ref"}

// RegisterKernel installs a kernel implementation. It panics on a
// duplicate registration or a name missing from kernelPreference (both
// programming errors).
func RegisterKernel(k Kernel) {
	kernelMu.Lock()
	defer kernelMu.Unlock()
	if _, dup := kernels[k.Name()]; dup {
		panic(fmt.Sprintf("vec: duplicate kernel %q", k.Name()))
	}
	if !slices.Contains(kernelPreference, k.Name()) {
		panic(fmt.Sprintf("vec: kernel %q has no rank in kernelPreference", k.Name()))
	}
	kernels[k.Name()] = k
}

func init() {
	RegisterKernel(refKernel{})
	RegisterKernel(unrolledKernel{})
}

// KnownKernelNames returns every name ForName resolves without error,
// sorted — including names that fall back on this host.
func KnownKernelNames() []string {
	out := slices.Clone(kernelPreference)
	slices.Sort(out)
	return out
}

// RegisteredKernelNames returns the kernels actually available on this
// host, fastest first: the first name is the default kernel's.
func RegisteredKernelNames() []string {
	kernelMu.RLock()
	defer kernelMu.RUnlock()
	out := make([]string, 0, len(kernels))
	for _, n := range kernelPreference {
		if _, ok := kernels[n]; ok {
			out = append(out, n)
		}
	}
	return out
}

// ForName resolves a kernel by name. The empty string resolves to the
// default. A known-but-unregistered name (avx2 on a host without the
// ISA) falls back to the default kernel instead of erroring, so knob
// replay works across heterogeneous cluster nodes; the returned
// kernel's Name() reports what actually runs (EXPLAIN shows it).
func ForName(name string) (Kernel, error) {
	if name != "" && !slices.Contains(kernelPreference, name) {
		return nil, fmt.Errorf("vec: unknown distance kernel %q (have %v)", name, KnownKernelNames())
	}
	kernelMu.RLock()
	defer kernelMu.RUnlock()
	if k, ok := kernels[name]; ok {
		return k, nil
	}
	for _, n := range kernelPreference {
		if k, ok := kernels[n]; ok {
			return k, nil
		}
	}
	panic("vec: no kernel registered") // init registers ref and unrolled
}

// Ref returns the reference kernel — the fixed, session-independent
// arithmetic used wherever a result must not depend on SET
// distance_kernel: bucket assignment (Insert and Delete must re-derive
// the same bucket), k-means and PQ training, and test oracles.
func Ref() Kernel {
	kernelMu.RLock()
	defer kernelMu.RUnlock()
	return kernels["ref"]
}

// GraphKernelName names the kernel both HNSW engines build and repair
// their graphs with. It is pure Go, so a graph's edges depend neither on
// a session's SET distance_kernel nor on the host's CPUID, and the
// specialized and the generalized engine build the same graph.
const GraphKernelName = "unrolled"

// GraphKernel returns the kernel GraphKernelName names; init registers
// it on every host.
func GraphKernel() Kernel {
	kernelMu.RLock()
	defer kernelMu.RUnlock()
	return kernels[GraphKernelName]
}

// Default returns the default kernel: the fastest one this host
// registered.
func Default() Kernel {
	k, _ := ForName("")
	return k
}

// refKernel is the PASE-style scalar baseline: one sequential
// accumulator chain per pair, everywhere. Its batched forms delegate to
// the blas L2 routines, whose per-pair chains are proven bit-equal to
// L2SqrRef (see internal/blas/l2batch.go).
type refKernel struct{}

// Name implements Kernel.
func (refKernel) Name() string { return "ref" }

// L2Sqr implements Kernel.
func (refKernel) L2Sqr(x, y []float32) float32 { return L2SqrRef(x, y) }

// L2SqrBatch implements Kernel.
func (refKernel) L2SqrBatch(q []float32, rows [][]float32, out []float32) {
	for i, r := range rows {
		out[i] = L2SqrRef(q, r)
	}
}

// L2SqrNTRows implements Kernel.
func (refKernel) L2SqrNTRows(rows [][]float32, k int, b []float32, n int, c []float32) {
	blas.L2SqrNTRows(rows, k, b, n, c)
}

// L2SqrSQ8 implements Kernel: the sequential reference form of the
// asymmetric distance, d_i = q_i − (min_i + step_i·code_i).
func (refKernel) L2SqrSQ8(q []float32, code []byte, sq *SQ8) float32 {
	mn, st := sq.Min, sq.Step
	var s float32
	for i := range q {
		d := q[i] - (mn[i] + st[i]*float32(code[i]))
		s += d * d
	}
	return s
}

// L2SqrSQ8Batch implements Kernel.
func (k refKernel) L2SqrSQ8Batch(q []float32, codes [][]byte, sq *SQ8, out []float32) {
	for i, c := range codes {
		out[i] = k.L2SqrSQ8(q, c, sq)
	}
}

// DotSQ8Batch implements Kernel: one sequential chain per code.
func (refKernel) DotSQ8Batch(w []float32, codes [][]byte, out []float32) {
	for i, code := range codes {
		code = code[:len(w)]
		var s float32
		for j, c := range code {
			s += w[j] * float32(c)
		}
		out[i] = s
	}
}

// unrolledKernel is the generic-Go kernel: 8-way unrolled with
// eight independent accumulator chains, reduced pairwise at the end.
// Its batched forms call the solo form per pair inside an 8-row cache
// block (each B row stays hot across the block), which makes solo/batch
// bit-parity true by construction.
type unrolledKernel struct{}

// Name implements Kernel.
func (unrolledKernel) Name() string { return "unrolled" }

// L2Sqr implements Kernel. The fixed-length subslices inside the loop
// let the compiler prove every index in bounds, so the body is pure
// subtract/multiply/add with eight independent chains.
func (unrolledKernel) L2Sqr(x, y []float32) float32 {
	n := len(x)
	y = y[:n]
	var s0, s1, s2, s3, s4, s5, s6, s7 float32
	i := 0
	for ; i+8 <= n; i += 8 {
		xx := x[i : i+8 : i+8]
		yy := y[i : i+8 : i+8]
		d0 := xx[0] - yy[0]
		d1 := xx[1] - yy[1]
		d2 := xx[2] - yy[2]
		d3 := xx[3] - yy[3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
		d4 := xx[4] - yy[4]
		d5 := xx[5] - yy[5]
		d6 := xx[6] - yy[6]
		d7 := xx[7] - yy[7]
		s4 += d4 * d4
		s5 += d5 * d5
		s6 += d6 * d6
		s7 += d7 * d7
	}
	for ; i < n; i++ {
		d := x[i] - y[i]
		s0 += d * d
	}
	return ((s0 + s1) + (s2 + s3)) + ((s4 + s5) + (s6 + s7))
}

// L2SqrBatch implements Kernel.
func (k unrolledKernel) L2SqrBatch(q []float32, rows [][]float32, out []float32) {
	for i, r := range rows {
		out[i] = k.L2Sqr(q, r)
	}
}

// L2SqrNTRows implements Kernel.
func (k unrolledKernel) L2SqrNTRows(rows [][]float32, kk int, b []float32, n int, c []float32) {
	m := len(rows)
	for i0 := 0; i0 < m; i0 += 8 {
		i1 := min(i0+8, m)
		for j := 0; j < n; j++ {
			brow := b[j*kk : (j+1)*kk]
			for i := i0; i < i1; i++ {
				c[i*n+j] = k.L2Sqr(rows[i][:kk], brow)
			}
		}
	}
}

// L2SqrSQ8 implements Kernel: the 4-chain unrolled asymmetric distance.
// The hoisted reslices and fixed-length subslices let the compiler prove
// every index of all four arrays in bounds, which matters more here than
// in L2Sqr — the body reads four streams per element, so un-eliminated
// checks dominate the decode arithmetic.
func (unrolledKernel) L2SqrSQ8(q []float32, code []byte, sq *SQ8) float32 {
	n := len(q)
	code = code[:n]
	mn := sq.Min[:n]
	st := sq.Step[:n]
	var s0, s1, s2, s3 float32
	i := 0
	for ; i+4 <= n; i += 4 {
		qq := q[i : i+4 : i+4]
		cc := code[i : i+4 : i+4]
		mm := mn[i : i+4 : i+4]
		ss := st[i : i+4 : i+4]
		d0 := qq[0] - (mm[0] + ss[0]*float32(cc[0]))
		d1 := qq[1] - (mm[1] + ss[1]*float32(cc[1]))
		d2 := qq[2] - (mm[2] + ss[2]*float32(cc[2]))
		d3 := qq[3] - (mm[3] + ss[3]*float32(cc[3]))
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < n; i++ {
		d := q[i] - (mn[i] + st[i]*float32(code[i]))
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

// L2SqrSQ8Batch implements Kernel.
func (k unrolledKernel) L2SqrSQ8Batch(q []float32, codes [][]byte, sq *SQ8, out []float32) {
	for i, c := range codes {
		out[i] = k.L2SqrSQ8(q, c, sq)
	}
}

// DotSQ8Batch implements Kernel: the 4-chain unrolled dot product, with
// the same subslice discipline as L2SqrSQ8 — two streams per element
// here, so eliminated bounds checks are most of the win.
func (unrolledKernel) DotSQ8Batch(w []float32, codes [][]byte, out []float32) {
	n := len(w)
	for ci, code := range codes {
		code = code[:n]
		var s0, s1, s2, s3 float32
		i := 0
		for ; i+4 <= n; i += 4 {
			ww := w[i : i+4 : i+4]
			cc := code[i : i+4 : i+4]
			s0 += ww[0] * float32(cc[0])
			s1 += ww[1] * float32(cc[1])
			s2 += ww[2] * float32(cc[2])
			s3 += ww[3] * float32(cc[3])
		}
		for ; i < n; i++ {
			s0 += w[i] * float32(code[i])
		}
		out[ci] = (s0 + s1) + (s2 + s3)
	}
}
