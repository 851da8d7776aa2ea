// Package rawdistance enforces the kernel-dispatch invariant the
// distance refactor established: every distance computed on a search,
// build, or maintenance path goes through a vec.Kernel (resolved by
// vec.ForName / pinned by vec.Ref), never through the raw package-level
// helpers or a hand-rolled subtract-square loop.
//
// The invariant is what makes SET distance_kernel total: if one call
// site scores with vec.L2Sqr directly, that site silently ignores the
// session's kernel and EXPLAIN's "Kernel:" line lies. It is also what
// keeps on-disk layouts session-independent — bucket assignment and
// graph wiring must use the pinned ref kernel, and a raw helper call is
// indistinguishable from a forgotten pin.
//
// Two shapes are flagged outside internal/vec and internal/blas (the
// packages that implement kernels and are allowed raw arithmetic):
//
//   - calls to the raw entry points vec.L2Sqr, vec.L2SqrRef, and
//     blas.L2SqrNTRows — use a Kernel method instead;
//   - manual subtract-square loops: (a[i]-b[i])*(a[i]-b[i]) inline, or
//     d := a[i]-b[i] followed by d*d inside a loop body.
//
// Call sites that are legitimately raw — a test oracle that must stay
// independent of the kernel registry, arithmetic that only looks like a
// distance — declare it with //vetvec:kernel-exempt on the call line or
// the line above.
package rawdistance

import (
	"go/ast"
	"go/token"
	"strings"

	"vecstudy/internal/analysis"
)

// VecPath and BlasPath declare the raw helpers; inside them raw
// arithmetic is the point.
const (
	VecPath  = "vecstudy/internal/vec"
	BlasPath = "vecstudy/internal/blas"
)

// Analyzer is the kernel-dispatch checker.
var Analyzer = &analysis.Analyzer{
	Name: "rawdistance",
	Doc:  "distance computation outside internal/vec must go through a vec.Kernel, not raw helpers or manual subtract-square loops",
	Run:  run,
}

// exemptPrefixes are the package trees allowed raw distance arithmetic.
var exemptPrefixes = []string{VecPath, BlasPath}

// rawVecFuncs are the banned package-level helpers in internal/vec.
var rawVecFuncs = []string{"L2Sqr", "L2SqrRef"}

// rawBlasFuncs are the banned batched helpers in internal/blas.
var rawBlasFuncs = []string{"L2SqrNTRows"}

func run(pass *analysis.Pass) error {
	for _, p := range exemptPrefixes {
		if pass.Pkg.Path() == p || strings.HasPrefix(pass.Pkg.Path(), p+"/") {
			return nil
		}
	}
	for _, file := range pass.Files {
		// Tests carry their own kernel-independent oracles by design.
		if name := pass.Fset.Position(file.Pos()).Filename; strings.HasSuffix(name, "_test.go") {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkRawCall(pass, n)
			case *ast.ForStmt:
				if n.Body != nil {
					checkLoopBody(pass, n.Body)
				}
			case *ast.RangeStmt:
				if n.Body != nil {
					checkLoopBody(pass, n.Body)
				}
			}
			return true
		})
	}
	return nil
}

func checkRawCall(pass *analysis.Pass, call *ast.CallExpr) {
	for _, name := range rawVecFuncs {
		if analysis.IsPkgFunc(pass.Info, call, VecPath, name) && !pass.Suppressed(call.Pos(), "kernel-exempt") {
			pass.Reportf(call.Pos(),
				"raw vec.%s bypasses the session kernel: score through a vec.Kernel (ForName/Ref/Default), or annotate //vetvec:kernel-exempt",
				name)
		}
	}
	for _, name := range rawBlasFuncs {
		if analysis.IsPkgFunc(pass.Info, call, BlasPath, name) && !pass.Suppressed(call.Pos(), "kernel-exempt") {
			pass.Reportf(call.Pos(),
				"raw blas.%s bypasses the session kernel: use Kernel.L2SqrNTRows, or annotate //vetvec:kernel-exempt",
				name)
		}
	}
}

// checkLoopBody flags manual subtract-square arithmetic inside one loop
// body: the inline form (a[i]-b[i])*(a[i]-b[i]), and the two-step form
// where an identifier assigned a[i]-b[i] is later multiplied by itself.
func checkLoopBody(pass *analysis.Pass, body *ast.BlockStmt) {
	// Pass 1: identifiers assigned a subtraction of two index
	// expressions anywhere in this body.
	diffIdents := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i := range as.Lhs {
			id, ok := as.Lhs[i].(*ast.Ident)
			if !ok {
				continue
			}
			if isIndexDiff(as.Rhs[i]) {
				diffIdents[id.Name] = true
			}
		}
		return true
	})
	// Pass 2: self-multiplications of either form.
	ast.Inspect(body, func(n ast.Node) bool {
		mul, ok := n.(*ast.BinaryExpr)
		if !ok || mul.Op != token.MUL {
			return true
		}
		if pass.Suppressed(mul.Pos(), "kernel-exempt") {
			return true
		}
		if isIndexDiff(mul.X) && isIndexDiff(mul.Y) {
			pass.Reportf(mul.Pos(),
				"manual subtract-square loop computes a distance outside the kernel layer: use a vec.Kernel method, or annotate //vetvec:kernel-exempt")
			return false
		}
		xi, xok := mul.X.(*ast.Ident)
		yi, yok := mul.Y.(*ast.Ident)
		if xok && yok && xi.Name == yi.Name && diffIdents[xi.Name] {
			pass.Reportf(mul.Pos(),
				"manual subtract-square loop computes a distance outside the kernel layer: use a vec.Kernel method, or annotate //vetvec:kernel-exempt")
			return false
		}
		return true
	})
}

// isIndexDiff reports whether e (modulo parens and float32 conversions)
// is a subtraction with at least one indexed operand — the elementwise
// difference at the heart of an L2 loop.
func isIndexDiff(e ast.Expr) bool {
	e = unwrap(e)
	sub, ok := e.(*ast.BinaryExpr)
	if !ok || sub.Op != token.SUB {
		return false
	}
	return isIndexed(sub.X) || isIndexed(sub.Y)
}

func isIndexed(e ast.Expr) bool {
	_, ok := unwrap(e).(*ast.IndexExpr)
	return ok
}

// unwrap strips parentheses and single-argument conversions/calls like
// float32(...) or float64(...), which wrap the difference without
// changing what it computes.
func unwrap(e ast.Expr) ast.Expr {
	for {
		switch x := e.(type) {
		case *ast.ParenExpr:
			e = x.X
		case *ast.CallExpr:
			if len(x.Args) != 1 {
				return e
			}
			e = x.Args[0]
		default:
			return e
		}
	}
}
