// AVX2 squared-L2 kernel and CPUID feature probes. See
// kernel_avx2_amd64.go for the dispatch rules and the parity contract:
// the per-row reduction order is fixed (four YMM accumulators summed
// pairwise, then a horizontal add), so for a given length the result is
// deterministic, and sub-then-square makes it sign-symmetric bitwise.

#include "textflag.h"

// func l2sqrBatchAVX2(q *float32, rows [][]float32, d int, out *float32, stride int)
// d must be a positive multiple of 8; every row must hold ≥ d floats
// (the Go shim enforces both). This is the one full-precision body: the
// solo L2Sqr is a batch of one row, so a batched distance is bit-identical
// to the solo one by construction — the L2SqrBatch / L2SqrNTRows parity
// contract. Batching amortizes the call overhead (asm entry, Go-side
// reslices, VZEROUPPER) across a page segment of rows: VZEROUPPER runs
// once per batch, not once per row.
TEXT ·l2sqrBatchAVX2(SB), NOSPLIT, $0-56
	MOVQ q+0(FP), R13
	MOVQ rows_base+8(FP), R10
	MOVQ rows_len+16(FP), R11
	MOVQ d+32(FP), AX
	MOVQ out+40(FP), R12
	MOVQ stride+48(FP), BX
	SHLQ $2, BX // out advances stride float32s per row

l2batchloop:
	TESTQ R11, R11
	JE    l2batchdone
	MOVQ  (R10), DI // rows[i] data pointer (slice header stride 24)
	MOVQ  R13, SI
	MOVQ  AX, CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

l2batch32:
	CMPQ CX, $32
	JLT  l2batch8
	VMOVUPS (SI), Y4
	VMOVUPS 32(SI), Y5
	VMOVUPS 64(SI), Y6
	VMOVUPS 96(SI), Y7
	VSUBPS  (DI), Y4, Y4
	VSUBPS  32(DI), Y5, Y5
	VSUBPS  64(DI), Y6, Y6
	VSUBPS  96(DI), Y7, Y7
	VMULPS  Y4, Y4, Y4
	VMULPS  Y5, Y5, Y5
	VMULPS  Y6, Y6, Y6
	VMULPS  Y7, Y7, Y7
	VADDPS  Y4, Y0, Y0
	VADDPS  Y5, Y1, Y1
	VADDPS  Y6, Y2, Y2
	VADDPS  Y7, Y3, Y3
	ADDQ    $128, SI
	ADDQ    $128, DI
	SUBQ    $32, CX
	JMP     l2batch32

l2batch8:
	CMPQ CX, $8
	JLT  l2batchreduce
	VMOVUPS (SI), Y4
	VSUBPS  (DI), Y4, Y4
	VMULPS  Y4, Y4, Y4
	VADDPS  Y4, Y0, Y0
	ADDQ    $32, SI
	ADDQ    $32, DI
	SUBQ    $8, CX
	JMP     l2batch8

l2batchreduce:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	MOVSS X0, (R12)
	ADDQ  $24, R10
	ADDQ  BX, R12
	DECQ  R11
	JMP   l2batchloop

l2batchdone:
	VZEROUPPER
	RET

// func l2sqrSQ8AVX2(q *float32, code *byte, mn, st *float32, n int) float32
// n must be a positive multiple of 8. Computes Σ (q_i − (mn_i + st_i·c_i))²
// with the byte decode done in-register: VPMOVZXBD widens 8 codes to
// dwords, VCVTDQ2PS converts to floats, then two fused chains — decode
// is st·c+mn (VFMADD132PS) and accumulation is acc += d·d (VFMADD231PS),
// which is why the feature probe requires FMA alongside AVX2. Four YMM
// accumulators (32 elements in flight) summed pairwise at the end, so
// the reduction order is a pure function of the length, matching this
// kernel's determinism contract.
TEXT ·l2sqrSQ8AVX2(SB), NOSPLIT, $0-44
	MOVQ q+0(FP), SI
	MOVQ code+8(FP), DX
	MOVQ mn+16(FP), R8
	MOVQ st+24(FP), R9
	MOVQ n+32(FP), CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

sq8loop32:
	CMPQ CX, $32
	JLT  sq8loop8
	VPMOVZXBD (DX), Y4
	VPMOVZXBD 8(DX), Y5
	VPMOVZXBD 16(DX), Y6
	VPMOVZXBD 24(DX), Y7
	VCVTDQ2PS Y4, Y4
	VCVTDQ2PS Y5, Y5
	VCVTDQ2PS Y6, Y6
	VCVTDQ2PS Y7, Y7
	VMOVUPS   (R8), Y8
	VMOVUPS   32(R8), Y9
	VMOVUPS   64(R8), Y10
	VMOVUPS   96(R8), Y11
	VFMADD132PS (R9), Y8, Y4
	VFMADD132PS 32(R9), Y9, Y5
	VFMADD132PS 64(R9), Y10, Y6
	VFMADD132PS 96(R9), Y11, Y7
	VMOVUPS   (SI), Y8
	VMOVUPS   32(SI), Y9
	VMOVUPS   64(SI), Y10
	VMOVUPS   96(SI), Y11
	VSUBPS    Y4, Y8, Y8
	VSUBPS    Y5, Y9, Y9
	VSUBPS    Y6, Y10, Y10
	VSUBPS    Y7, Y11, Y11
	VFMADD231PS Y8, Y8, Y0
	VFMADD231PS Y9, Y9, Y1
	VFMADD231PS Y10, Y10, Y2
	VFMADD231PS Y11, Y11, Y3
	ADDQ      $32, DX
	ADDQ      $128, SI
	ADDQ      $128, R8
	ADDQ      $128, R9
	SUBQ      $32, CX
	JMP       sq8loop32

sq8loop8:
	CMPQ CX, $8
	JLT  sq8reduce
	VPMOVZXBD (DX), Y4
	VCVTDQ2PS Y4, Y4
	VMOVUPS   (R8), Y8
	VFMADD132PS (R9), Y8, Y4
	VMOVUPS   (SI), Y8
	VSUBPS    Y4, Y8, Y8
	VFMADD231PS Y8, Y8, Y0
	ADDQ      $8, DX
	ADDQ      $32, SI
	ADDQ      $32, R8
	ADDQ      $32, R9
	SUBQ      $8, CX
	JMP       sq8loop8

sq8reduce:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VZEROUPPER
	MOVSS X0, ret+40(FP)
	RET

// func l2sqrSQ8BatchAVX2(q *float32, codes [][]byte, mn, st *float32, d int, out *float32)
// d must be a positive multiple of 8; every code must hold ≥ d bytes
// (the Go shim enforces both). The per-code body is instruction-for-
// instruction the solo l2sqrSQ8AVX2 loop, so out[i] is bit-identical to
// the solo call — the L2SqrSQ8Batch parity contract. Batching exists to
// amortize the call overhead (asm entry, horizontal reduce, VZEROUPPER)
// across a page of candidates: VZEROUPPER runs once per batch, not once
// per code.
TEXT ·l2sqrSQ8BatchAVX2(SB), NOSPLIT, $0-64
	MOVQ q+0(FP), R13
	MOVQ codes_base+8(FP), R10
	MOVQ codes_len+16(FP), R11
	MOVQ mn+32(FP), R14
	MOVQ st+40(FP), BX
	MOVQ d+48(FP), AX
	MOVQ out+56(FP), R12

sq8batchloop:
	TESTQ R11, R11
	JE    sq8batchdone
	MOVQ  (R10), DX // codes[i] data pointer (slice header stride 24)
	MOVQ  R13, SI
	MOVQ  R14, R8
	MOVQ  BX, R9
	MOVQ  AX, CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

sq8batch32:
	CMPQ CX, $32
	JLT  sq8batch8
	VPMOVZXBD (DX), Y4
	VPMOVZXBD 8(DX), Y5
	VPMOVZXBD 16(DX), Y6
	VPMOVZXBD 24(DX), Y7
	VCVTDQ2PS Y4, Y4
	VCVTDQ2PS Y5, Y5
	VCVTDQ2PS Y6, Y6
	VCVTDQ2PS Y7, Y7
	VMOVUPS   (R8), Y8
	VMOVUPS   32(R8), Y9
	VMOVUPS   64(R8), Y10
	VMOVUPS   96(R8), Y11
	VFMADD132PS (R9), Y8, Y4
	VFMADD132PS 32(R9), Y9, Y5
	VFMADD132PS 64(R9), Y10, Y6
	VFMADD132PS 96(R9), Y11, Y7
	VMOVUPS   (SI), Y8
	VMOVUPS   32(SI), Y9
	VMOVUPS   64(SI), Y10
	VMOVUPS   96(SI), Y11
	VSUBPS    Y4, Y8, Y8
	VSUBPS    Y5, Y9, Y9
	VSUBPS    Y6, Y10, Y10
	VSUBPS    Y7, Y11, Y11
	VFMADD231PS Y8, Y8, Y0
	VFMADD231PS Y9, Y9, Y1
	VFMADD231PS Y10, Y10, Y2
	VFMADD231PS Y11, Y11, Y3
	ADDQ      $32, DX
	ADDQ      $128, SI
	ADDQ      $128, R8
	ADDQ      $128, R9
	SUBQ      $32, CX
	JMP       sq8batch32

sq8batch8:
	CMPQ CX, $8
	JLT  sq8batchreduce
	VPMOVZXBD (DX), Y4
	VCVTDQ2PS Y4, Y4
	VMOVUPS   (R8), Y8
	VFMADD132PS (R9), Y8, Y4
	VMOVUPS   (SI), Y8
	VSUBPS    Y4, Y8, Y8
	VFMADD231PS Y8, Y8, Y0
	ADDQ      $8, DX
	ADDQ      $32, SI
	ADDQ      $32, R8
	ADDQ      $32, R9
	SUBQ      $8, CX
	JMP       sq8batch8

sq8batchreduce:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	MOVSS X0, (R12)
	ADDQ  $24, R10
	ADDQ  $4, R12
	DECQ  R11
	JMP   sq8batchloop

sq8batchdone:
	VZEROUPPER
	RET

// func dotSQ8BatchAVX2(w *float32, codes [][]byte, d int, out *float32)
// d must be a positive multiple of 8; every code must hold ≥ d bytes
// (the Go shim enforces both). Per code: Σ w_j·float32(c_j) with the
// decode fused into the accumulate — VPMOVZXBD widen, VCVTDQ2PS
// convert, then a single VFMADD231PS against w straight from memory.
// Three instructions per 8 lanes is the whole point of the decomposed
// scan: the subtract/decode work of the full asymmetric form moves out
// of the per-candidate loop into precomputed norms. Four accumulator
// chains, pairwise reduce, one VZEROUPPER for the whole batch.
TEXT ·dotSQ8BatchAVX2(SB), NOSPLIT, $0-48
	MOVQ w+0(FP), R13
	MOVQ codes_base+8(FP), R10
	MOVQ codes_len+16(FP), R11
	MOVQ d+32(FP), AX
	MOVQ out+40(FP), R12

dotbatchloop:
	TESTQ R11, R11
	JE    dotbatchdone
	MOVQ  (R10), DX // codes[i] data pointer (slice header stride 24)
	MOVQ  R13, SI
	MOVQ  AX, CX
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

dotbatch32:
	CMPQ CX, $32
	JLT  dotbatch8
	VPMOVZXBD (DX), Y4
	VPMOVZXBD 8(DX), Y5
	VPMOVZXBD 16(DX), Y6
	VPMOVZXBD 24(DX), Y7
	VCVTDQ2PS Y4, Y4
	VCVTDQ2PS Y5, Y5
	VCVTDQ2PS Y6, Y6
	VCVTDQ2PS Y7, Y7
	VFMADD231PS (SI), Y4, Y0
	VFMADD231PS 32(SI), Y5, Y1
	VFMADD231PS 64(SI), Y6, Y2
	VFMADD231PS 96(SI), Y7, Y3
	ADDQ      $32, DX
	ADDQ      $128, SI
	SUBQ      $32, CX
	JMP       dotbatch32

dotbatch8:
	CMPQ CX, $8
	JLT  dotbatchreduce
	VPMOVZXBD (DX), Y4
	VCVTDQ2PS Y4, Y4
	VFMADD231PS (SI), Y4, Y0
	ADDQ      $8, DX
	ADDQ      $32, SI
	SUBQ      $8, CX
	JMP       dotbatch8

dotbatchreduce:
	VADDPS Y1, Y0, Y0
	VADDPS Y3, Y2, Y2
	VADDPS Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS X1, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	MOVSS X0, (R12)
	ADDQ  $24, R10
	ADDQ  $4, R12
	DECQ  R11
	JMP   dotbatchloop

dotbatchdone:
	VZEROUPPER
	RET

// func cpuidAsm(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidAsm(SB), NOSPLIT, $0-24
	MOVL eaxIn+0(FP), AX
	MOVL ecxIn+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbvAsm() (eax, edx uint32)
TEXT ·xgetbvAsm(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
