// Command vetvec runs this repository's custom static analyzers over Go
// packages and exits non-zero if any diagnostic is reported. It is the
// codebase's analogue of PostgreSQL's CHECK_FOR_LEAKED_BUFFERS and
// LWLock assertions: the invariants the paper reproduction depends on —
// pinned buffers always released (RC#2), pinned-page memory never
// outliving its pin, no blocking calls under a buffer-partition mutex
// (RC#3), SQLSTATEs drawn from declared constants, no fire-and-forget
// goroutines on serving paths, no exported function that only tests
// call — checked mechanically instead of by convention.
//
// Before any analyzer runs, an interprocedural summary table is built
// over every loaded package (see internal/analysis/summary.go), so
// pinrelease and pagealias see through helper calls: a helper that
// releases on behalf of its caller, or returns a slice into a pinned
// frame, is known by summary rather than trusted by directive. The same
// table indexes which functions the module names, for deadexport; that
// question needs the whole module, so a narrower pattern than ./...
// turns deadexport off rather than letting it guess.
//
// Usage:
//
//	go run ./cmd/vetvec ./...
//	go run ./cmd/vetvec -run pinrelease,pagealias ./internal/pg/...
//	go run ./cmd/vetvec -json ./...
//
// Diagnostics print as path:line:col: [analyzer] message, sorted by
// (file, line, col, analyzer); -json emits one JSON object per line in
// the same order. Packages are analyzed in parallel; output order is
// deterministic either way.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"

	"vecstudy/internal/analysis"
	"vecstudy/internal/analysis/deadexport"
	"vecstudy/internal/analysis/deadvisibility"
	"vecstudy/internal/analysis/gohygiene"
	"vecstudy/internal/analysis/load"
	"vecstudy/internal/analysis/lockscope"
	"vecstudy/internal/analysis/pagealias"
	"vecstudy/internal/analysis/pinrelease"
	"vecstudy/internal/analysis/rawdistance"
	"vecstudy/internal/analysis/sqlstate"
)

var analyzers = []*analysis.Analyzer{
	pinrelease.Analyzer,
	pagealias.Analyzer,
	lockscope.Analyzer,
	sqlstate.Analyzer,
	gohygiene.Analyzer,
	deadvisibility.Analyzer,
	rawdistance.Analyzer,
	deadexport.Analyzer,
}

// finding is one diagnostic with its resolved position, the unit of
// both text and JSON output.
type finding struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	runFlag := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	jsonFlag := flag.Bool("json", false, "emit diagnostics as JSON objects, one per line")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: vetvec [-run names] [-json] packages...\n\nanalyzers:\n")
		for _, a := range analyzers {
			fmt.Fprintf(os.Stderr, "  %-14s %s\n", a.Name, a.Doc)
		}
	}
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	selected, err := selectAnalyzers(*runFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vetvec:", err)
		os.Exit(2)
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "vetvec:", err)
		os.Exit(2)
	}
	loader, err := load.NewLoader(wd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vetvec:", err)
		os.Exit(2)
	}
	pkgs, err := loader.Patterns(patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vetvec:", err)
		os.Exit(2)
	}

	// The summary table spans every loaded package — including ones the
	// analyzers skip — so cross-package helper calls resolve.
	inputs := make([]analysis.SummaryInput, 0, len(pkgs))
	for _, pkg := range pkgs {
		inputs = append(inputs, analysis.SummaryInput{
			Fset: pkg.Fset, Files: pkg.Files, Info: pkg.Info, Pkg: pkg.Types,
		})
	}
	summaries := analysis.BuildSummaries(inputs)
	summaries.Partial = !loader.Covers(pkgs)
	if summaries.External, err = loader.SiblingSelectors(); err != nil {
		fmt.Fprintln(os.Stderr, "vetvec:", err)
		os.Exit(2)
	}

	// vetvec does not analyze itself: analyzer sources and fixtures
	// quote the very patterns the checkers flag.
	var targets []*load.Package
	for _, pkg := range pkgs {
		if strings.HasPrefix(pkg.Path, "vecstudy/internal/analysis") ||
			strings.HasPrefix(pkg.Path, "vecstudy/cmd/vetvec") {
			continue
		}
		targets = append(targets, pkg)
	}

	findings, err := analyze(targets, selected, summaries)
	if err != nil {
		fmt.Fprintln(os.Stderr, "vetvec:", err)
		os.Exit(2)
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})

	enc := json.NewEncoder(os.Stdout)
	for _, f := range findings {
		if *jsonFlag {
			if err := enc.Encode(f); err != nil {
				fmt.Fprintln(os.Stderr, "vetvec:", err)
				os.Exit(2)
			}
			continue
		}
		fmt.Printf("%s:%d:%d: [%s] %s\n", f.File, f.Line, f.Col, f.Analyzer, f.Message)
	}
	if len(findings) > 0 {
		fmt.Fprintf(os.Stderr, "vetvec: %d diagnostic(s)\n", len(findings))
		os.Exit(1)
	}
}

// analyze runs every selected analyzer over every target package, one
// package per worker; analyzers within a package run serially, so the
// per-package Pass state stays single-threaded.
func analyze(targets []*load.Package, selected []*analysis.Analyzer, summaries *analysis.Summaries) ([]finding, error) {
	perPkg := make([][]finding, len(targets))
	errs := make([]error, len(targets))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(targets) {
		workers = len(targets)
	}
	if workers < 1 {
		workers = 1
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				perPkg[i], errs[i] = analyzePkg(targets[i], selected, summaries)
			}
		}()
	}
	for i := range targets {
		next <- i
	}
	close(next)
	wg.Wait()
	var out []finding
	for i := range targets {
		if errs[i] != nil {
			return nil, errs[i]
		}
		out = append(out, perPkg[i]...)
	}
	return out, nil
}

func analyzePkg(pkg *load.Package, selected []*analysis.Analyzer, summaries *analysis.Summaries) ([]finding, error) {
	var out []finding
	for _, a := range selected {
		pass := &analysis.Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			Info:      pkg.Info,
			Summaries: summaries,
		}
		name := a.Name
		pass.Report = func(d analysis.Diagnostic) {
			pos := pkg.Fset.Position(d.Pos)
			out = append(out, finding{
				File: pos.Filename, Line: pos.Line, Col: pos.Column,
				Analyzer: name, Message: d.Message,
			})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.Path, err)
		}
	}
	return out, nil
}

// selectAnalyzers resolves the -run flag to a subset of analyzers.
func selectAnalyzers(runFlag string) ([]*analysis.Analyzer, error) {
	if runFlag == "" {
		return analyzers, nil
	}
	byName := make(map[string]*analysis.Analyzer, len(analyzers))
	for _, a := range analyzers {
		byName[a.Name] = a
	}
	var out []*analysis.Analyzer
	for _, name := range strings.Split(runFlag, ",") {
		a, ok := byName[strings.TrimSpace(name)]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q", name)
		}
		out = append(out, a)
	}
	return out, nil
}
