// Package deadexport keeps deleted code deleted: it flags an exported
// function or method under internal/ that no loaded non-test file names.
// Such a symbol is API nothing runs — it costs reading and upkeep, and
// its tests prove a behaviour the program does not have.
//
// A function counts as used when, anywhere in the module's non-test
// files, something other than its own body names it (the reference
// index of the summary table), when a sibling module selects its name
// (benchmark/ is its own module, outside ./..., and is read by name
// only), or — for a method — when its type satisfies an interface that
// has the method, so a call through the interface reaches it unnamed.
// The testutil and analysistest packages exist for tests and are not
// checked.
//
// A test oracle or probe that is exported on purpose carries
//
//	//vetvec:test-probe <reason>
//
// in its doc comment. A directive without a reason is reported, and so
// is one on a symbol that non-test code uses: the directive would hide
// nothing and mislead the reader.
//
// A load of less than the whole module (vetvec ./internal/pg/...)
// reports nothing: an unloaded package may be the caller.
package deadexport

import (
	"go/ast"
	"go/types"
	"strings"

	"vecstudy/internal/analysis"
)

// Analyzer is the dead-export checker.
var Analyzer = &analysis.Analyzer{
	Name: "deadexport",
	Doc:  "an exported function or method under internal/ must be used by non-test code, or carry //vetvec:test-probe <reason>",
	Run:  run,
}

// probeDirective is the directive that keeps a test-only export.
const probeDirective = analysis.DirectivePrefix + "test-probe"

func run(pass *analysis.Pass) error {
	s := pass.Summaries
	if s == nil || s.Partial || !inScope(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			fn, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			live := s.Referenced(fn) || s.External[fn.Name()] || s.SatisfiesUsedInterface(fn)
			probe, reason := probeDoc(fd)
			switch {
			case probe && reason == "":
				pass.Reportf(fd.Name.Pos(), "//vetvec:test-probe on %s needs a reason", name(fn))
			case probe && live:
				pass.Reportf(fd.Name.Pos(), "%s is used outside tests: drop its //vetvec:test-probe directive", name(fn))
			case !probe && !live:
				pass.Reportf(fd.Name.Pos(), "exported %s is used by no non-test code: delete it, or mark a test oracle //vetvec:test-probe <reason>", name(fn))
			}
		}
	}
	return nil
}

// inScope reports whether path lies under an internal/ directory and is
// not one of the test-support packages.
func inScope(path string) bool {
	segs := strings.Split(path, "/")
	internal := false
	for _, seg := range segs {
		switch seg {
		case "internal":
			internal = true
		case "testutil", "analysistest":
			return false
		}
	}
	return internal
}

// probeDoc reports whether fd's doc comment carries the test-probe
// directive, and the reason that follows it.
func probeDoc(fd *ast.FuncDecl) (bool, string) {
	if fd.Doc == nil {
		return false, ""
	}
	for _, c := range fd.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		rest, ok := strings.CutPrefix(text, probeDirective)
		if ok && (rest == "" || rest[0] == ' ' || rest[0] == '\t') {
			return true, strings.TrimSpace(rest)
		}
	}
	return false, ""
}

// name prints fn as pkg.Func or (*pkg.T).Method.
func name(fn *types.Func) string {
	qual := func(p *types.Package) string { return p.Name() }
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		return "(" + types.TypeString(recv.Type(), qual) + ")." + fn.Name()
	}
	return fn.Pkg().Name() + "." + fn.Name()
}
