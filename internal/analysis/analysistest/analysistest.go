// Package analysistest runs an analyzer over a fixture package and
// checks its diagnostics against `// want "regexp"` comments, the same
// protocol as golang.org/x/tools/go/analysis/analysistest: a want
// comment on a line asserts that the analyzer reports a diagnostic on
// that line matching the regexp; every diagnostic must be wanted and
// every want must be matched.
//
// Fixtures live under testdata/src/<name> next to each analyzer, where
// `go list` never looks — they can therefore contain deliberate
// invariant violations without tripping the real vetvec run in CI.
package analysistest

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"vecstudy/internal/analysis"
	"vecstudy/internal/analysis/load"
)

// wantRE extracts the quoted pattern from a `// want "..."` comment.
var wantRE = regexp.MustCompile(`//\s*want\s+"((?:[^"\\]|\\.)*)"`)

type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run loads testdata/src/<fixture> relative to dir, applies the
// analyzer, and reports mismatches as test errors.
func Run(t *testing.T, dir string, a *analysis.Analyzer, fixture string) {
	RunPath(t, dir, a, fixture, "vetvecfixture/"+fixture)
}

// RunPath is Run with an explicit import path for the fixture package —
// needed by analyzers whose scope is decided by import path (gohygiene
// only fires inside the serving packages).
func RunPath(t *testing.T, dir string, a *analysis.Analyzer, fixture, importPath string) {
	t.Helper()
	run(t, dir, a, []string{fixture}, []string{importPath}, nil, false)
}

// Module describes a fixture of several packages, for analyzers that
// answer whole-module questions. Pkgs are directories under
// testdata/src, loaded in order under the import path
// "vetvecfixture/<dir>", so a package may import any listed before it.
// Siblings are directories under testdata/src that stand for sibling
// modules: they are parsed for selector names, never type-checked.
// Partial marks the load as less than the whole module.
type Module struct {
	Pkgs     []string
	Siblings []string
	Partial  bool
}

// RunModule loads every package of m, builds one summary table over all
// of them, applies the analyzer to each, and checks the diagnostics
// against the want comments of every package.
func RunModule(t *testing.T, dir string, a *analysis.Analyzer, m Module) {
	t.Helper()
	paths := make([]string, len(m.Pkgs))
	for i, p := range m.Pkgs {
		paths[i] = "vetvecfixture/" + p
	}
	siblings := make([]string, len(m.Siblings))
	for i, s := range m.Siblings {
		siblings[i] = filepath.Join(dir, "testdata", "src", s)
	}
	external, err := load.SelectorNames(siblings...)
	if err != nil {
		t.Fatalf("sibling sources: %v", err)
	}
	run(t, dir, a, m.Pkgs, paths, external, m.Partial)
}

func run(t *testing.T, dir string, a *analysis.Analyzer, fixtures, importPaths []string, external map[string]bool, partial bool) {
	t.Helper()
	loader, err := load.NewLoader(dir)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	var pkgs []*load.Package
	var expects []*expectation
	var inputs []analysis.SummaryInput
	for i, fixture := range fixtures {
		fixtureDir := filepath.Join(dir, "testdata", "src", fixture)
		pkg, err := loader.Dir(fixtureDir, importPaths[i])
		if err != nil {
			t.Fatalf("loading fixture %s: %v", fixtureDir, err)
		}
		pkgs = append(pkgs, pkg)
		expects = append(expects, collectWants(t, pkg)...)
		inputs = append(inputs, analysis.SummaryInput{Fset: pkg.Fset, Files: pkg.Files, Info: pkg.Info, Pkg: pkg.Types})
	}

	// Fixtures get the same interprocedural context as a real run: a
	// summary table over the fixture packages themselves, so
	// multi-function escape/transfer/borrow cases resolve through their
	// own helpers.
	summaries := analysis.BuildSummaries(inputs)
	summaries.External = external
	summaries.Partial = partial

	var diags []analysis.Diagnostic
	for _, pkg := range pkgs {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			Info:      pkg.Info,
			Summaries: summaries,
			Report:    func(d analysis.Diagnostic) { diags = append(diags, d) },
		}
		if err := a.Run(pass); err != nil {
			t.Fatalf("analyzer %s: %v", a.Name, err)
		}
	}

	fset := pkgs[0].Fset
	for _, d := range diags {
		pos := fset.Position(d.Pos)
		if !claim(expects, pos.Filename, pos.Line, d.Message) {
			t.Errorf("%s:%d: unexpected diagnostic: %s", filepath.Base(pos.Filename), pos.Line, d.Message)
		}
	}
	for _, e := range expects {
		if !e.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", filepath.Base(e.file), e.line, e.pattern)
		}
	}
}

// collectWants scans fixture comments for want expectations.
func collectWants(t *testing.T, pkg *load.Package) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
					pat, err := regexp.Compile(unescape(m[1]))
					if err != nil {
						pos := pkg.Fset.Position(c.Pos())
						t.Fatalf("%s:%d: bad want pattern %q: %v", pos.Filename, pos.Line, m[1], err)
					}
					pos := pkg.Fset.Position(c.Pos())
					out = append(out, &expectation{file: pos.Filename, line: pos.Line, pattern: pat})
				}
			}
		}
	}
	return out
}

// claim marks the first unmatched expectation at (file, line) whose
// pattern matches message.
func claim(expects []*expectation, file string, line int, message string) bool {
	for _, e := range expects {
		if e.matched || e.file != file || e.line != line {
			continue
		}
		if e.pattern.MatchString(message) {
			e.matched = true
			return true
		}
	}
	return false
}

// unescape undoes the \" escaping inside the quoted want pattern.
func unescape(s string) string {
	return strings.ReplaceAll(s, `\"`, `"`)
}
