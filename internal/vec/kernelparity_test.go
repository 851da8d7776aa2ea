package vec

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

// kernelparity: the exhaustive cross-kernel test matrix. Every
// registered kernel × every dimension in {1..67, 128, 768, 1536} ×
// adversarial inputs (denormals, ±0, duplicate coordinates that force
// distance ties). The contract it pins down, per kernel K:
//
//  1. K's batched forms (L2SqrBatch, L2SqrNTRows) are BIT-equal, pair by pair, to K.L2Sqr — this is what the batch
//     coalescer's byte-identical promise rests on.
//  2. K.L2Sqr(x, y) == K.L2Sqr(y, x) bitwise (sign symmetry) — what the
//     multi-query probe path relies on when it transposes tuples and
//     queries.
//  3. "ref" is BIT-equal to an independent sequential float32 sum (the
//     oracle), and every other kernel agrees with ref to relative
//     tolerance. Bit-equality across kernels is impossible by
//     construction — a multi-chain kernel sums in a different order and
//     IEEE addition is not associative — which is exactly why ref is
//     pinned wherever arithmetic must be session-independent.

var parityDims = func() []int {
	var ds []int
	for d := 1; d <= 67; d++ {
		ds = append(ds, d)
	}
	return append(ds, 128, 768, 1536)
}()

// adversarialVecs builds a pair of d-dim vectors mixing normal values,
// denormals, +0/−0, and duplicated coordinates (tie fodder).
func adversarialVecs(rng *rand.Rand, d int) (x, y []float32) {
	x = make([]float32, d)
	y = make([]float32, d)
	for i := 0; i < d; i++ {
		switch i % 5 {
		case 0:
			x[i] = float32(rng.NormFloat64())
			y[i] = float32(rng.NormFloat64())
		case 1: // denormals: smallest positive subnormal scaled a little
			x[i] = math.Float32frombits(uint32(1 + rng.Intn(8)))
			y[i] = math.Float32frombits(uint32(1 + rng.Intn(8)))
		case 2: // signed zeros
			x[i] = float32(math.Copysign(0, float64(rng.Intn(2)*2-1)))
			y[i] = float32(math.Copysign(0, float64(rng.Intn(2)*2-1)))
		case 3: // exact duplicates: zero contribution, ties downstream
			v := float32(rng.NormFloat64())
			x[i], y[i] = v, v
		default: // large magnitude spread
			x[i] = float32(rng.NormFloat64()) * 1e6
			y[i] = float32(rng.NormFloat64()) * 1e-6
		}
	}
	return x, y
}

// seqSum is the independent oracle: a plain sequential float32
// accumulation, written without reference to any kernel code.
func seqSum(x, y []float32) float32 {
	var s float32
	for i := range x {
		d := x[i] - y[i]
		s += d * d
	}
	return s
}

func parityKernels(t *testing.T) []Kernel {
	t.Helper()
	var ks []Kernel
	for _, name := range RegisteredKernelNames() {
		k, err := ForName(name)
		if err != nil {
			t.Fatalf("ForName(%q): %v", name, err)
		}
		ks = append(ks, k)
	}
	return ks
}

func TestKernelSoloParity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, d := range parityDims {
		x, y := adversarialVecs(rng, d)
		oracle := seqSum(x, y)
		for _, k := range parityKernels(t) {
			got := k.L2Sqr(x, y)
			// Sign symmetry must be bitwise for every kernel.
			if sym := k.L2Sqr(y, x); math.Float32bits(sym) != math.Float32bits(got) {
				t.Errorf("%s d=%d: L2Sqr(x,y)=%x != L2Sqr(y,x)=%x", k.Name(), d,
					math.Float32bits(got), math.Float32bits(sym))
			}
			if k.Name() == "ref" {
				if math.Float32bits(got) != math.Float32bits(oracle) {
					t.Errorf("ref d=%d: %x, oracle %x", d, math.Float32bits(got), math.Float32bits(oracle))
				}
				continue
			}
			// Fast kernels: agreement with the oracle to relative tolerance.
			diff := math.Abs(float64(got) - float64(oracle))
			scale := math.Max(float64(oracle), 1e-30)
			if diff > 1e-4*scale {
				t.Errorf("%s d=%d: %v, oracle %v (rel %g)", k.Name(), d, got, oracle, diff/scale)
			}
		}
	}
}

func TestKernelBatchBitParity(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, d := range parityDims {
		// A modest batch: enough rows to exercise the 8-row blocks and
		// the remainder paths.
		const m, n = 11, 5
		rows := make([][]float32, m)
		for i := range rows {
			rows[i], _ = adversarialVecs(rng, d)
		}
		bFlat := make([]float32, n*d)
		queries := make([][]float32, n)
		for j := range queries {
			_, y := adversarialVecs(rng, d)
			queries[j] = y
			copy(bFlat[j*d:(j+1)*d], y)
		}
		for _, k := range parityKernels(t) {
			// L2SqrBatch vs solo.
			out := make([]float32, m)
			k.L2SqrBatch(queries[0], rows, out)
			for i := range rows {
				want := k.L2Sqr(queries[0], rows[i])
				if math.Float32bits(out[i]) != math.Float32bits(want) {
					t.Fatalf("%s d=%d: L2SqrBatch[%d]=%x, solo=%x", k.Name(), d, i,
						math.Float32bits(out[i]), math.Float32bits(want))
				}
			}
			// L2SqrNTRows vs solo, every pair.
			c := make([]float32, m*n)
			k.L2SqrNTRows(rows, d, bFlat, n, c)
			for i := 0; i < m; i++ {
				for j := 0; j < n; j++ {
					want := k.L2Sqr(rows[i], queries[j])
					if math.Float32bits(c[i*n+j]) != math.Float32bits(want) {
						t.Fatalf("%s d=%d: NTRows[%d,%d]=%x, solo=%x", k.Name(), d, i, j,
							math.Float32bits(c[i*n+j]), math.Float32bits(want))
					}
				}
			}
		}
	}
}

// TestKernelRowBatchEdges covers what the fixed 11×5 matrix above does
// not reach in the row-batch forms: more rows than one L2SqrNTRows block,
// the single-query shape a solo scan scores a page with, an empty batch,
// and a row shorter than the query, which must panic the way the solo
// form's reslice does instead of reading past the row.
func TestKernelRowBatchEdges(t *testing.T) {
	rng := rand.New(rand.NewSource(48))
	for _, d := range []int{1, 7, 8, 13, 32, 37, 128} {
		const m = 37
		rows := make([][]float32, m)
		for i := range rows {
			rows[i], _ = adversarialVecs(rng, d)
		}
		for _, k := range parityKernels(t) {
			for _, n := range []int{1, 3} {
				b := make([]float32, n*d)
				for j := range b {
					b[j] = float32(rng.NormFloat64())
				}
				c := make([]float32, m*n)
				for i := range c {
					c[i] = -1
				}
				k.L2SqrNTRows(rows, d, b, n, c)
				for i := 0; i < m; i++ {
					for j := 0; j < n; j++ {
						want := k.L2Sqr(rows[i], b[j*d:(j+1)*d])
						if math.Float32bits(c[i*n+j]) != math.Float32bits(want) {
							t.Fatalf("%s d=%d n=%d: NTRows[%d,%d]=%x, solo=%x", k.Name(), d, n, i, j,
								math.Float32bits(c[i*n+j]), math.Float32bits(want))
						}
					}
				}
			}

			q := rows[0]
			out := []float32{-1}
			k.L2SqrBatch(q, nil, out)
			k.L2SqrNTRows(nil, d, q, 1, out)
			if out[0] != -1 {
				t.Errorf("%s d=%d: an empty batch wrote %v", k.Name(), d, out[0])
			}

			short := [][]float32{rows[1], rows[2][: d-1 : d-1]}
			out = make([]float32, 2)
			for form, call := range map[string]func(){
				"L2SqrBatch":  func() { k.L2SqrBatch(q, short, out) },
				"L2SqrNTRows": func() { k.L2SqrNTRows(short, d, q, 1, out) },
			} {
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s d=%d: %s accepted a row of %d floats", k.Name(), d, form, d-1)
						}
					}()
					call()
				}()
			}
		}
	}
}

func TestKernelRegistryResolution(t *testing.T) {
	// The default is the first registered kernel in preference order:
	// avx2 wherever it registered, unrolled elsewhere, never ref.
	names := RegisteredKernelNames()
	want := "unrolled"
	if slices.Contains(names, "avx2") {
		want = "avx2"
	}
	if names[0] != want || Default().Name() != want {
		t.Errorf("registered %v, Default() = %q: want %q first and default", names, Default().Name(), want)
	}
	if ref := Ref(); ref.Name() != "ref" {
		t.Errorf("Ref() = %q", ref.Name())
	}
	k, err := ForName("")
	if err != nil || k != Default() {
		t.Errorf("ForName(\"\") = %v, %v", k, err)
	}
	// Known names never error, even when unregistered on this host
	// (avx2 on non-amd64): they fall back to the default.
	for _, name := range KnownKernelNames() {
		k, err := ForName(name)
		if err != nil {
			t.Errorf("ForName(%q): %v", name, err)
		}
		if k == nil {
			t.Errorf("ForName(%q) returned nil kernel", name)
		} else if !slices.Contains(names, name) && k != Default() {
			t.Errorf("unregistered %q resolved to %q, want the default", name, k.Name())
		}
	}
	if _, err := ForName("sse9"); err == nil {
		t.Error("ForName accepted unknown kernel name")
	}
}

func TestSQ8RoundTripBound(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for _, d := range []int{1, 7, 32, 128, 768} {
		tr := NewSQ8Trainer(d)
		train := make([][]float32, 64)
		for i := range train {
			v := make([]float32, d)
			for j := range v {
				v[j] = float32(rng.NormFloat64()) * 10
			}
			if i == 0 {
				// Force one constant dimension to exercise Step == 0.
				v[0] = 1
			}
			train[i] = v
		}
		for i := range train {
			train[i][0] = 1 // constant dim across the whole set
			tr.Observe(train[i])
		}
		sq := tr.Finish()
		if sq.Step[0] != 0 {
			t.Fatalf("d=%d: constant dimension got step %v", d, sq.Step[0])
		}
		code := make([]byte, d)
		dec := make([]float32, d)
		for _, v := range train {
			sq.Encode(v, code)
			sq.Decode(code, dec)
			for j := range v {
				// |decode(encode(x)) − x| ≤ step/2 per dimension, with an
				// allowance for float32 rounding in the grid arithmetic
				// (the divide in Encode and the madd in Decode each
				// contribute a few ULPs).
				bound := float64(sq.Step[j])/2*(1+1e-3) + 1e-12
				if diff := math.Abs(float64(dec[j]) - float64(v[j])); diff > bound {
					t.Fatalf("d=%d dim=%d: |%v - %v| = %g > step/2 = %g",
						d, j, dec[j], v[j], diff, bound)
				}
			}
		}
	}
}

func TestKernelSQ8Asymmetric(t *testing.T) {
	// For every kernel: the asymmetric distance against a code equals
	// (to bit precision for ref, tolerance otherwise) the kernel's own
	// full-precision distance against the decoded vector — the grid snap
	// is the only error source.
	rng := rand.New(rand.NewSource(44))
	for _, d := range []int{1, 5, 16, 64, 128} {
		tr := NewSQ8Trainer(d)
		base := make([][]float32, 32)
		for i := range base {
			v := randVec(rng, d)
			base[i] = v
			tr.Observe(v)
		}
		sq := tr.Finish()
		q := randVec(rng, d)
		code := make([]byte, d)
		dec := make([]float32, d)
		for _, v := range base {
			sq.Encode(v, code)
			sq.Decode(code, dec)
			refWant := seqSum(q, dec)
			for _, k := range parityKernels(t) {
				got := k.L2SqrSQ8(q, code, sq)
				if k.Name() == "ref" {
					if math.Float32bits(got) != math.Float32bits(refWant) {
						t.Fatalf("ref d=%d: SQ8 %x, decoded oracle %x", d,
							math.Float32bits(got), math.Float32bits(refWant))
					}
					continue
				}
				if !almostEqual(float64(got), float64(refWant), 1e-4) {
					t.Fatalf("%s d=%d: SQ8 %v, decoded oracle %v", k.Name(), d, got, refWant)
				}
			}
		}
	}
}

func TestKernelDotSQ8Batch(t *testing.T) {
	// DotSQ8Batch's contract: out[i] ≈ Σ_j w[j]·float32(codes[i][j])
	// (bitwise for ref, tolerance otherwise — reduction order is
	// per-kernel), and per-lane purity — a lane's value must not depend
	// on what else is in the batch, checked by rescoring each code as a
	// singleton batch and demanding bitwise agreement.
	rng := rand.New(rand.NewSource(46))
	for _, d := range []int{1, 5, 8, 37, 64, 128} {
		w := randVec(rng, d)
		codes := make([][]byte, 33)
		for i := range codes {
			codes[i] = make([]byte, d)
			rng.Read(codes[i])
		}
		oracle := make([]float32, len(codes))
		for i, c := range codes {
			var s float32
			for j, cv := range c {
				s += w[j] * float32(cv)
			}
			oracle[i] = s
		}
		out := make([]float32, len(codes))
		solo := make([]float32, 1)
		for _, k := range parityKernels(t) {
			for i := range out {
				out[i] = -1
			}
			k.DotSQ8Batch(w, codes, out)
			for i := range codes {
				if k.Name() == "ref" {
					if math.Float32bits(out[i]) != math.Float32bits(oracle[i]) {
						t.Fatalf("ref d=%d code %d: %x, oracle %x", d, i,
							math.Float32bits(out[i]), math.Float32bits(oracle[i]))
					}
				} else if !almostEqual(float64(out[i]), float64(oracle[i]), 1e-4) {
					t.Fatalf("%s d=%d code %d: %v, oracle %v", k.Name(), d, i, out[i], oracle[i])
				}
				solo[0] = -1
				k.DotSQ8Batch(w, codes[i:i+1], solo)
				if math.Float32bits(solo[0]) != math.Float32bits(out[i]) {
					t.Fatalf("%s d=%d code %d: singleton %x != batch lane %x (lane not pure)",
						k.Name(), d, i, math.Float32bits(solo[0]), math.Float32bits(out[i]))
				}
			}
		}
	}
}

func TestDecomposedSQ8MatchesDirect(t *testing.T) {
	// The decomposed reassembly ‖u‖² − 2·dot + codeNorm must agree with
	// the direct asymmetric distance up to float32 cancellation — the
	// access-method invariant that lets plain scans score with
	// DotSQ8Batch + stored norms while predicate paths keep L2SqrSQ8.
	rng := rand.New(rand.NewSource(47))
	for _, d := range []int{8, 37, 128} {
		tr := NewSQ8Trainer(d)
		base := make([][]float32, 32)
		for i := range base {
			v := randVec(rng, d)
			base[i] = v
			tr.Observe(v)
		}
		sq := tr.Finish()
		q := randVec(rng, d)
		w := make([]float32, d)
		unorm := sq.DecomposeQuery(q, w)
		codes := make([][]byte, len(base))
		norms := make([]float32, len(base))
		for i, v := range base {
			codes[i] = make([]byte, d)
			sq.Encode(v, codes[i])
			norms[i] = sq.CodeNorm(codes[i])
		}
		dots := make([]float32, len(codes))
		for _, k := range parityKernels(t) {
			k.DotSQ8Batch(w, codes, dots)
			for i := range codes {
				got := unorm - 2*dots[i] + norms[i]
				want := k.L2SqrSQ8(q, codes[i], sq)
				// Cancellation between the three terms bounds the error by
				// the terms' magnitude, not the result's.
				tol := 1e-4 * float64(unorm+norms[i]+1)
				if diff := math.Abs(float64(got) - float64(want)); diff > tol {
					t.Fatalf("%s d=%d code %d: decomposed %v, direct %v (|Δ|=%g > %g)",
						k.Name(), d, i, got, want, diff, tol)
				}
			}
		}
	}
}

func TestKernelSQ8BatchMatchesSolo(t *testing.T) {
	// The batch form's contract is bitwise agreement with the solo form,
	// per code — exercised across 8-aligned dimensions (the avx2 batch
	// assembly path) and ragged ones (the per-code fallback).
	rng := rand.New(rand.NewSource(45))
	for _, d := range []int{1, 5, 8, 37, 64, 128} {
		tr := NewSQ8Trainer(d)
		base := make([][]float32, 33)
		for i := range base {
			v := randVec(rng, d)
			base[i] = v
			tr.Observe(v)
		}
		sq := tr.Finish()
		q := randVec(rng, d)
		codes := make([][]byte, len(base))
		for i, v := range base {
			codes[i] = make([]byte, d)
			sq.Encode(v, codes[i])
		}
		out := make([]float32, len(codes))
		for _, k := range parityKernels(t) {
			for i := range out {
				out[i] = -1
			}
			k.L2SqrSQ8Batch(q, codes, sq, out)
			for i, c := range codes {
				want := k.L2SqrSQ8(q, c, sq)
				if math.Float32bits(out[i]) != math.Float32bits(want) {
					t.Fatalf("%s d=%d code %d: batch %x, solo %x", k.Name(), d, i,
						math.Float32bits(out[i]), math.Float32bits(want))
				}
			}
		}
	}
}
