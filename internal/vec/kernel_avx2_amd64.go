package vec

// The avx2 kernel: 8-lane vector subtract/multiply/add in Go assembly
// (kernel_avx2_amd64.s) with four YMM accumulators — 32 floats in
// flight per iteration. Registration is gated by a runtime CPUID probe:
// the instruction set must be present (CPUID.7.0:EBX.AVX2), the OS must
// have enabled YMM state saving (CPUID.1:ECX.OSXSAVE + XGETBV XCR0
// bits 1–2), and plain AVX must be advertised. On hosts that fail the
// probe the kernel never registers and `SET distance_kernel = avx2`
// falls back to the default kernel (vec.ForName documents this).
//
// Parity: the scalar tail is added sequentially after the vector body,
// so the summation order is a pure function of the vector length. There
// is one full-precision assembly body, which scores a query against a
// group of rows: the row-batch forms (L2SqrBatch, L2SqrNTRows) hand it a
// page segment per call and the solo form hands it one row — all over
// the one scalar tail, so a batched distance is bit-identical to the
// solo one by construction.
// Denormals are handled by hardware IEEE semantics (Go
// does not set DAZ/FTZ in MXCSR), so no flush-to-zero divergence from
// the scalar kernels.

// l2sqrBatchAVX2 writes ‖q − rows[i]‖² over the first d elements into
// out[i*stride] for every row, with one VZEROUPPER for the whole batch;
// d must be a positive multiple of 8 and every row must hold ≥ d floats.
// It retains no pointer, so the solo form's one-row batch stays on the
// stack. Implemented in kernel_avx2_amd64.s.
//
//go:noescape
func l2sqrBatchAVX2(q *float32, rows [][]float32, d int, out *float32, stride int)

// l2sqrSQ8AVX2 sums the asymmetric ‖q − (mn + st·code)‖² over the first
// n elements, decoding the uint8 codes in-register; n must be a
// positive multiple of 8. Implemented in kernel_avx2_amd64.s.
func l2sqrSQ8AVX2(q *float32, code *byte, mn, st *float32, n int) float32

// l2sqrSQ8BatchAVX2 writes the solo asymmetric distance of q to every
// code into out, with one VZEROUPPER for the whole batch; d must be a
// positive multiple of 8 and every code must hold ≥ d bytes.
// Implemented in kernel_avx2_amd64.s.
func l2sqrSQ8BatchAVX2(q *float32, codes [][]byte, mn, st *float32, d int, out *float32)

// dotSQ8BatchAVX2 writes the dot product of w with every decoded code
// into out, with one VZEROUPPER for the whole batch; d must be a
// positive multiple of 8 and every code must hold ≥ d bytes.
// Implemented in kernel_avx2_amd64.s.
func dotSQ8BatchAVX2(w *float32, codes [][]byte, d int, out *float32)

// cpuidAsm executes CPUID with the given leaf/subleaf.
func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbvAsm reads XCR0.
func xgetbvAsm() (eax, edx uint32)

// haveAVX2 reports whether the host CPU and OS support AVX2 execution.
func haveAVX2() bool {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuidAsm(1, 0)
	const osxsaveBit = 1 << 27
	const avxBit = 1 << 28
	// The SQ8 body fuses decode and accumulate with VFMADD, so FMA is
	// part of this kernel's feature set (every AVX2 part since Haswell
	// and Zen ships it, but the probe checks rather than assumes).
	const fmaBit = 1 << 12
	if ecx1&osxsaveBit == 0 || ecx1&avxBit == 0 || ecx1&fmaBit == 0 {
		return false
	}
	xcr0, _ := xgetbvAsm()
	if xcr0&6 != 6 { // XMM and YMM state must both be OS-managed
		return false
	}
	_, ebx7, _, _ := cpuidAsm(7, 0)
	const avx2Bit = 1 << 5
	return ebx7&avx2Bit != 0
}

func init() {
	if haveAVX2() {
		RegisterKernel(avx2Kernel{})
	}
}

// avx2Kernel dispatches the assembly bodies with a sequential scalar
// tail.
type avx2Kernel struct{}

// Name implements Kernel.
func (avx2Kernel) Name() string { return "avx2" }

// L2Sqr implements Kernel: a batch of one row.
func (avx2Kernel) L2Sqr(x, y []float32) float32 {
	n := len(x)
	y = y[:n]
	n8 := n &^ 7
	var s float32
	if n8 > 0 {
		row := [1][]float32{y}
		l2sqrBatchAVX2(&x[0], row[:], n8, &s, 1)
	}
	return l2sqrTail(s, x, y, n8)
}

// l2sqrTail adds the elements from index from on to s, one at a time:
// the one scalar tail behind both the solo and the row-batch form, so
// the two cannot round apart.
func l2sqrTail(s float32, x, y []float32, from int) float32 {
	for i := from; i < len(x); i++ {
		d := x[i] - y[i]
		s += d * d
	}
	return s
}

// l2sqrRows writes ‖q − rows[i]‖² into out[i*stride] for every row: one
// assembly call over the 8-aligned prefix of every row, then the scalar
// tail per row. A row shorter than q panics, like the solo form's
// y[:len(x)] reslice.
func l2sqrRows(q []float32, rows [][]float32, out []float32, stride int) {
	if len(rows) == 0 {
		return
	}
	n := len(q)
	for _, r := range rows {
		_ = r[:n]
	}
	out = out[:(len(rows)-1)*stride+1]
	n8 := n &^ 7
	if n8 == 0 {
		for i := range rows {
			out[i*stride] = 0
		}
	} else {
		l2sqrBatchAVX2(&q[0], rows, n8, &out[0], stride)
	}
	if n8 < n {
		for i, r := range rows {
			out[i*stride] = l2sqrTail(out[i*stride], q, r, n8)
		}
	}
}

// L2SqrBatch implements Kernel.
func (avx2Kernel) L2SqrBatch(q []float32, rows [][]float32, out []float32) {
	l2sqrRows(q, rows, out, 1)
}

// ntRowBlock is how many A rows one L2SqrNTRows assembly call covers
// when there are several B rows: 16 rows of 128 floats are 8 KiB — one
// index page — so a block stays in L1 while every B row passes over it.
const ntRowBlock = 16

// L2SqrNTRows implements Kernel. With one B row — a solo scan scoring a
// page segment — the whole segment is one assembly call. The body
// computes b−row where the solo form called from here would compute
// row−b, which squares to the same bits (the sign-symmetry contract).
func (avx2Kernel) L2SqrNTRows(rows [][]float32, kk int, b []float32, n int, c []float32) {
	if n == 1 {
		l2sqrRows(b[:kk], rows, c, 1)
		return
	}
	for i0 := 0; i0 < len(rows); i0 += ntRowBlock {
		block := rows[i0:min(i0+ntRowBlock, len(rows))]
		for j := 0; j < n; j++ {
			l2sqrRows(b[j*kk:(j+1)*kk], block, c[i0*n+j:], n)
		}
	}
}

// L2SqrSQ8 implements Kernel. The byte decode happens in-register
// (VPMOVZXBD widen, VCVTDQ2PS convert), so the quantized form pays no
// scalar gather; per-element arithmetic matches the scalar kernels
// (st·c, +mn, subtract from q, square) and only the reduction order
// differs, as with L2Sqr.
func (avx2Kernel) L2SqrSQ8(q []float32, code []byte, sq *SQ8) float32 {
	n := len(q)
	code = code[:n]
	mn := sq.Min[:n]
	st := sq.Step[:n]
	n8 := n &^ 7
	var s float32
	if n8 > 0 {
		s = l2sqrSQ8AVX2(&q[0], &code[0], &mn[0], &st[0], n8)
	}
	for i := n8; i < n; i++ {
		d := q[i] - (mn[i] + st[i]*float32(code[i]))
		s += d * d
	}
	return s
}

// L2SqrSQ8Batch implements Kernel. For 8-aligned dimensions the whole
// batch runs in one assembly call (per-code bodies identical to the
// solo routine, so out[i] is bit-equal to the solo form); otherwise the
// scalar tail forces the per-code path.
func (k avx2Kernel) L2SqrSQ8Batch(q []float32, codes [][]byte, sq *SQ8, out []float32) {
	n := len(q)
	if n == 0 || n&7 != 0 {
		for i, c := range codes {
			out[i] = k.L2SqrSQ8(q, c, sq)
		}
		return
	}
	if len(codes) == 0 {
		return
	}
	out = out[:len(codes)]
	mn := sq.Min[:n]
	st := sq.Step[:n]
	// The asm body trusts every code to span the dimension; check here so
	// a short code panics like the solo form's code[:n] reslice would.
	for _, c := range codes {
		_ = c[n-1]
	}
	l2sqrSQ8BatchAVX2(&q[0], codes, &mn[0], &st[0], n, &out[0])
}

// DotSQ8Batch implements Kernel. For 8-aligned dimensions the whole
// batch runs in one assembly call; a ragged dimension falls back to the
// generic unrolled body (there is no cross-kernel bit contract on this
// method, only per-lane purity, which both paths satisfy — and a given
// dimension always takes the same path, so a host scores consistently).
func (avx2Kernel) DotSQ8Batch(w []float32, codes [][]byte, out []float32) {
	n := len(w)
	if n == 0 || n&7 != 0 {
		unrolledKernel{}.DotSQ8Batch(w, codes, out)
		return
	}
	if len(codes) == 0 {
		return
	}
	out = out[:len(codes)]
	for _, c := range codes {
		_ = c[n-1]
	}
	dotSQ8BatchAVX2(&w[0], codes, n, &out[0])
}
