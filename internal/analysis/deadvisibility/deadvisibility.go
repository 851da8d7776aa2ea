// Package deadvisibility enforces the tuple-visibility invariant on
// scan paths: code that resolves an index hit or scans the heap must
// observe the dead bit, so a DELETE is never visible through any read
// path.
//
// The heap exposes two tiers of accessors. (*heap.Table).Get and
// GetVector are raw — they return a tuple's bytes whether or not the
// tuple has been deleted (the heap only errors once VACUUM reclaims the
// slot, so between DELETE and VACUUM a raw read resurrects the row).
// GetVisible and GetVectorVisible are the sanctioned scan-path forms: they report ok=false for a dead tuple and the caller skips it.
//
// In the scan-path packages — the access methods (internal/pase/...),
// the pgvector adapter, the SQL executor, and the core harness — every
// raw Get/GetVector call is one forgotten dead-bit check away from the
// delete-then-search anomaly the dynamic-data tests pin down, so the
// analyzer bans the raw forms there outright. Call sites that read
// tuples the visibility check cannot misjudge (build-time passes over a
// freshly loaded table, repair code that must see dead tuples) declare
// it with a //vetvec:visibility-checked directive on the call line or
// the line above.
package deadvisibility

import (
	"go/ast"
	"strings"

	"vecstudy/internal/analysis"
)

// HeapPath is the package that declares the accessors.
const HeapPath = "vecstudy/internal/pg/heap"

// Analyzer is the dead-tuple-visibility checker.
var Analyzer = &analysis.Analyzer{
	Name: "deadvisibility",
	Doc:  "scan-path packages must read heap tuples through GetVisible/GetVectorVisible, not raw Get/GetVector",
	Run:  run,
}

// scopedPrefixes are the scan-path package trees the invariant applies
// to. The heap itself is exempt (the visible helpers are built from the
// raw ones), as are the loaders and tests that own freshly built tables.
var scopedPrefixes = []string{
	"vecstudy/internal/pase",
	"vecstudy/internal/pgvector",
	"vecstudy/internal/pg/sql",
	"vecstudy/internal/core",
}

// rawAccessors are the banned (*heap.Table) methods and the visible
// form each call site should use instead.
var rawAccessors = map[string]string{
	"Get":       "GetVisible",
	"GetVector": "GetVectorVisible",
}

func run(pass *analysis.Pass) error {
	if !inScope(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for raw, visible := range rawAccessors {
				if !analysis.IsMethod(pass.Info, call, HeapPath, "Table", raw) {
					continue
				}
				if pass.Suppressed(call.Pos(), "visibility-checked") {
					continue
				}
				pass.Reportf(call.Pos(),
					"raw heap.Table.%s on a scan path can return a deleted tuple: use %s (or annotate //vetvec:visibility-checked if dead tuples are intended here)",
					raw, visible)
			}
			return true
		})
	}
	return nil
}

func inScope(path string) bool {
	for _, p := range scopedPrefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}
