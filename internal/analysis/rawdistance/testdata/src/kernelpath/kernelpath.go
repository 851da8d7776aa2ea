// Package kernelpath is the rawdistance fixture: loaded under an
// ordinary (non-vec, non-blas) import path, each function is one
// distance-computation shape the analyzer must flag (// want) or must
// leave alone.
package kernelpath

import (
	"vecstudy/internal/blas"
	"vecstudy/internal/vec"
)

// rawL2 scores with the package-level helper, dodging the session kernel.
func rawL2(q, v []float32) float32 {
	return vec.L2Sqr(q, v) // want "raw vec.L2Sqr bypasses the session kernel"
}

// rawL2Ref likewise for the scalar reference helper.
func rawL2Ref(q, v []float32) float32 {
	return vec.L2SqrRef(q, v) // want "raw vec.L2SqrRef bypasses the session kernel"
}

// rawBatchRows likewise for the row-slice form.
func rawBatchRows(rows [][]float32, k int, b []float32, n int, c []float32) {
	blas.L2SqrNTRows(rows, k, b, n, c) // want "raw blas.L2SqrNTRows bypasses the session kernel"
}

// inlineLoop hand-rolls L2 with the one-expression form.
func inlineLoop(q, v []float32) float32 {
	var s float32
	for i := range q {
		s += (q[i] - v[i]) * (q[i] - v[i]) // want "manual subtract-square loop"
	}
	return s
}

// twoStepLoop hand-rolls L2 via an intermediate difference.
func twoStepLoop(q, v []float32) float32 {
	var s float32
	for i := 0; i < len(q); i++ {
		d := q[i] - v[i]
		s += d * d // want "manual subtract-square loop"
	}
	return s
}

// kernelScore is the sanctioned form: dispatch through a Kernel.
func kernelScore(kern vec.Kernel, q, v []float32) float32 {
	return kern.L2Sqr(q, v)
}

// pinnedScore pins the ref kernel for layout decisions — also fine.
func pinnedScore(q, v []float32) float32 {
	return vec.Ref().L2Sqr(q, v)
}

// plainArithmetic multiplies a difference of scalars: not a distance
// loop, must not be flagged.
func plainArithmetic(a, b float32) float32 {
	var s float32
	for i := 0; i < 4; i++ {
		d := a - b
		s += d * d
	}
	return s
}

// exemptSameLine is a deliberate oracle and says so.
func exemptSameLine(q, v []float32) float32 {
	return vec.L2SqrRef(q, v) //vetvec:kernel-exempt independent oracle
}

// exemptLineAbove carries the directive on the preceding line.
func exemptLineAbove(q, v []float32) float32 {
	var s float32
	for i := range q {
		//vetvec:kernel-exempt reference arithmetic on purpose
		s += (q[i] - v[i]) * (q[i] - v[i])
	}
	return s
}
