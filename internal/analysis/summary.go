// summary.go grows the framework from per-function AST walking into an
// interprocedural engine: BuildSummaries constructs an intra-module call
// graph over every loaded package and computes, per function, a summary
// of how it treats pinned buffers and pinned-page memory:
//
//   - for each parameter of type *buffer.Buf: whether the function
//     releases the pin on every path (BufReleases), merely borrows it
//     (BufBorrows), or stores/returns/forwards it so the pin's fate is
//     out of the caller's hands (BufEscapes);
//   - for each result: which parameters' memory it may alias, and which
//     *buffer.Buf parameters' pinned frame it is derived from (a slice
//     of buf.Page(), directly or through further helper calls);
//   - whether the function returns a *Buf that carries a live pin
//     (TransfersPin), the shape //vetvec:ownership-transfer declares.
//
// Summaries are computed to a fixpoint: helpers that delegate to other
// helpers inherit their behaviour transitively. Callees outside the
// loaded set (standard library, interface methods, function values) get
// no summary and are treated conservatively by consumers — exactly the
// per-function behaviour the analyzers had before this layer existed,
// so the interprocedural results only ever sharpen, never loosen, what
// the analyzers may assume.
//
// Identity is by (*types.Func).FullName(): packages under analysis are
// type-checked from source while their dependencies come from export
// data, so the same function is represented by distinct types.Func
// objects in different passes; the full name unifies them.
package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// BufPoolPath is the package declaring the pinning API whose ownership
// discipline the summaries track.
const BufPoolPath = "vecstudy/internal/pg/buffer"

// BufMode classifies what a function does with a *buffer.Buf parameter.
type BufMode uint8

const (
	// BufUnknown: not a *Buf parameter, or no summary available.
	BufUnknown BufMode = iota
	// BufBorrows: the function uses the pin (Page/Block/MarkDirty,
	// borrow-mode helpers) but never releases or stores it. The caller
	// keeps the release obligation.
	BufBorrows
	// BufReleases: the function releases the pin on every control-flow
	// path (directly, via defer, or through a releasing helper). The
	// caller's obligation is discharged by the call.
	BufReleases
	// BufEscapes: the function stores, sends, returns, or forwards the
	// buffer somewhere the analysis cannot follow, or releases it on
	// only some paths. Callers must treat the call as an ownership
	// transfer, as they did before summaries existed.
	BufEscapes
)

func (m BufMode) String() string {
	switch m {
	case BufBorrows:
		return "borrows"
	case BufReleases:
		return "releases"
	case BufEscapes:
		return "escapes"
	default:
		return "unknown"
	}
}

// ResultAlias records, for one function result, which parameters
// (receiver-first indexing) its memory may alias.
type ResultAlias struct {
	// Aliases is a bitmask over receiver-first parameter indices whose
	// memory (slice backing, pointee) the result may alias.
	Aliases uint64
	// PageOf is a bitmask over receiver-first parameter indices of
	// *buffer.Buf parameters whose pinned frame the result is derived
	// from (buf.Page() and everything reachable from it).
	PageOf uint64
}

// FuncSummary is the interprocedural summary of one function.
type FuncSummary struct {
	ID string

	// Bufs holds one BufMode per parameter, receiver first. Entries for
	// parameters that are not *buffer.Buf stay BufUnknown.
	Bufs []BufMode

	// Results holds one ResultAlias per declared result.
	Results []ResultAlias

	// TransfersPin reports that the function returns a *buffer.Buf
	// carrying a live pin (acquired by Pin/NewPage or another
	// transferring function). Callers own the release obligation.
	TransfersPin bool

	// TransferDirective reports the //vetvec:ownership-transfer
	// directive on the declaration.
	TransferDirective bool

	// HasBufResult reports that some declared result type is *buffer.Buf.
	HasBufResult bool
}

// Summaries is the module-wide summary table, keyed by
// (*types.Func).FullName().
type Summaries struct {
	funcs map[string]*FuncSummary

	// uses and ifaces are the reference index (refs.go).
	uses   map[string]bool
	ifaces map[string][]*types.Interface

	// Partial marks a table built from less than the whole module (a
	// sub-pattern such as ./internal/pg/...): an unloaded package may
	// name what no loaded one does, so Referenced cannot prove a
	// function dead.
	Partial bool
	// External holds the selector names that sibling modules (parsed,
	// not type-checked) use; a function of such a name counts as used.
	External map[string]bool
}

// Lookup returns the summary for fn, or nil.
func (s *Summaries) Lookup(fn *types.Func) *FuncSummary {
	if s == nil || fn == nil {
		return nil
	}
	return s.funcs[fn.FullName()]
}

// Callee resolves call to its static callee's summary, or nil for
// dynamic calls (function values, interface methods) and functions
// outside the summarized set.
func (s *Summaries) Callee(info *types.Info, call *ast.CallExpr) *FuncSummary {
	return s.Lookup(StaticCallee(info, call))
}

// StaticCallee resolves a call expression to the concrete *types.Func it
// invokes, or nil for dynamic calls, builtins, and conversions. Interface
// method calls resolve to the interface method object, which never has a
// body summary, so they stay conservatively unknown.
func StaticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
		if sel, ok := info.Selections[fun]; ok {
			// Concrete method: fine. Interface method: no body anywhere.
			if types.IsInterface(sel.Recv()) {
				return nil
			}
		}
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// CallArgs returns the call's argument expressions receiver-first: for a
// method call x.M(a, b) it returns [x, a, b], matching the receiver-first
// parameter indexing of FuncSummary.
func CallArgs(info *types.Info, call *ast.CallExpr) []ast.Expr {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if _, isMethod := info.Selections[sel]; isMethod {
			out := make([]ast.Expr, 0, len(call.Args)+1)
			out = append(out, sel.X)
			return append(out, call.Args...)
		}
	}
	return call.Args
}

// SummaryInput is one type-checked package fed to BuildSummaries.
type SummaryInput struct {
	Fset  *token.FileSet
	Files []*ast.File
	Info  *types.Info
	Pkg   *types.Package
}

// declSite is one function declaration with its type-checking context.
type declSite struct {
	decl *ast.FuncDecl
	info *types.Info
	fn   *types.Func
	// directive: //vetvec:ownership-transfer on the declaration.
	directive bool
	// params receiver-first.
	params []*types.Var
}

// BuildSummaries computes the module summary table over the given
// packages, iterating the per-function analysis to a fixpoint so that
// helper chains of any depth are summarized transitively.
func BuildSummaries(inputs []SummaryInput) *Summaries {
	s := &Summaries{funcs: make(map[string]*FuncSummary)}
	s.indexRefs(inputs)
	var sites []*declSite
	for _, in := range inputs {
		dirs := directiveLines(in.Fset, in.Files)
		for _, file := range in.Files {
			for _, d := range file.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := in.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				site := &declSite{
					decl:      fd,
					info:      in.Info,
					fn:        fn,
					directive: hasTransferDirective(in.Fset, fd, dirs),
					params:    receiverFirstParams(fn),
				}
				sites = append(sites, site)
				sig := fn.Type().(*types.Signature)
				sum := &FuncSummary{
					ID:                fn.FullName(),
					Bufs:              make([]BufMode, len(site.params)),
					Results:           make([]ResultAlias, sig.Results().Len()),
					TransferDirective: site.directive,
				}
				for i := 0; i < sig.Results().Len(); i++ {
					if isBufPtr(sig.Results().At(i).Type()) {
						sum.HasBufResult = true
					}
				}
				s.funcs[sum.ID] = sum
			}
		}
	}
	// Fixpoint: every transition is monotone (modes only grow toward
	// BufEscapes, alias masks only gain bits), so this terminates; the
	// round cap is a backstop against analysis bugs, not a tuning knob.
	for round := 0; round < 24; round++ {
		changed := false
		for _, site := range sites {
			if summarizeFunc(s, site) {
				changed = true
			}
		}
		if !changed {
			return s
		}
	}
	return s
}

// receiverFirstParams lists a function's parameters with the method
// receiver, if any, at index 0.
func receiverFirstParams(fn *types.Func) []*types.Var {
	sig := fn.Type().(*types.Signature)
	var out []*types.Var
	if recv := sig.Recv(); recv != nil {
		out = append(out, recv)
	}
	for i := 0; i < sig.Params().Len(); i++ {
		out = append(out, sig.Params().At(i))
	}
	return out
}

// directiveLines indexes //vetvec: directive comments by (file, line).
func directiveLines(fset *token.FileSet, files []*ast.File) map[string]map[int]bool {
	out := make(map[string]map[int]bool)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, DirectivePrefix+"ownership-transfer") {
					continue
				}
				pos := fset.Position(c.Pos())
				if out[pos.Filename] == nil {
					out[pos.Filename] = make(map[int]bool)
				}
				out[pos.Filename][pos.Line] = true
			}
		}
	}
	return out
}

// hasTransferDirective reports //vetvec:ownership-transfer in the doc
// comment, on the declaration line, or on the line directly above it.
func hasTransferDirective(fset *token.FileSet, fd *ast.FuncDecl, dirs map[string]map[int]bool) bool {
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if strings.HasPrefix(text, DirectivePrefix+"ownership-transfer") {
				return true
			}
		}
	}
	pos := fset.Position(fd.Pos())
	byLine := dirs[pos.Filename]
	return byLine != nil && (byLine[pos.Line] || byLine[pos.Line-1])
}

// isBufPtr reports whether t is *buffer.Buf.
func isBufPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	return NamedType(ptr.Elem(), BufPoolPath, "Buf")
}

// summarizeFunc recomputes one function's summary against the current
// table, reporting whether it changed.
func summarizeFunc(s *Summaries, site *declSite) bool {
	old := s.funcs[site.fn.FullName()]
	fresh := &FuncSummary{
		ID:                old.ID,
		Bufs:              make([]BufMode, len(site.params)),
		Results:           make([]ResultAlias, len(old.Results)),
		TransferDirective: old.TransferDirective,
		HasBufResult:      old.HasBufResult,
	}
	for i, p := range site.params {
		if isBufPtr(p.Type()) {
			fresh.Bufs[i] = classifyBufParam(s, site, p)
		}
	}
	computeResultAliases(s, site, fresh)
	fresh.TransfersPin = transfersPin(s, site)
	if summariesEqual(old, fresh) {
		return false
	}
	*old = *fresh
	return true
}

func summariesEqual(a, b *FuncSummary) bool {
	if a.TransfersPin != b.TransfersPin || len(a.Bufs) != len(b.Bufs) || len(a.Results) != len(b.Results) {
		return false
	}
	for i := range a.Bufs {
		if a.Bufs[i] != b.Bufs[i] {
			return false
		}
	}
	for i := range a.Results {
		if a.Results[i] != b.Results[i] {
			return false
		}
	}
	return true
}

// --- *Buf parameter classification ------------------------------------------

// bufUse classifies one syntactic use of a *Buf parameter, ordered by
// conservatism.
type bufUse uint8

const (
	useBorrow bufUse = iota
	useRelease
	useEscape
)

// bufBorrowMethods are *Buf methods that use the pin without consuming it.
var bufBorrowMethods = map[string]bool{
	"Page": true, "Block": true, "MarkDirty": true,
}

// classifyBufParam decides the BufMode of parameter v in site's body.
func classifyBufParam(s *Summaries, site *declSite, v *types.Var) BufMode {
	c := &bufClassifier{s: s, site: site, v: v}
	c.scanStmts(site.decl.Body.List, false)
	if c.escaped {
		return BufEscapes
	}
	if !c.released {
		return BufBorrows
	}
	// Release-uses exist and nothing escapes: the mode is Releases only
	// if the release happens on every path — a partial release must stay
	// conservative, or callers would be told to release again.
	released, exitsOK := mustRelease(c, site.decl.Body.List, false)
	_ = released
	if exitsOK {
		return BufReleases
	}
	return BufEscapes
}

type bufClassifier struct {
	s    *Summaries
	site *declSite
	v    *types.Var

	released bool
	escaped  bool
}

// isV reports whether expr names the tracked parameter.
func (c *bufClassifier) isV(expr ast.Expr) bool {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return false
	}
	return c.site.info.Uses[id] == c.v
}

// mentionsV reports whether the tracked parameter appears anywhere in n.
func (c *bufClassifier) mentionsV(n ast.Node) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && c.site.info.Uses[id] == c.v {
			found = true
		}
		return !found
	})
	return found
}

// scanStmts records every use of the parameter; inDefer marks statements
// that run at function exit.
func (c *bufClassifier) scanStmts(stmts []ast.Stmt, inDefer bool) {
	for _, st := range stmts {
		c.scanStmt(st, inDefer)
	}
}

func (c *bufClassifier) scanStmt(stmt ast.Stmt, inDefer bool) {
	switch st := stmt.(type) {
	case *ast.ExprStmt:
		c.scanExpr(st.X)
	case *ast.AssignStmt:
		for _, rhs := range st.Rhs {
			if c.isV(rhs) {
				c.escaped = true // stored somewhere: out of our hands
				continue
			}
			c.scanExpr(rhs)
		}
		for _, lhs := range st.Lhs {
			if c.isV(lhs) {
				c.escaped = true // reassigned: tracking ends
				continue
			}
			c.scanExpr(lhs)
		}
	case *ast.ReturnStmt:
		for _, r := range st.Results {
			if c.isV(r) {
				c.escaped = true // pin handed to the caller
				continue
			}
			c.scanExpr(r)
		}
	case *ast.DeferStmt:
		c.scanCall(st.Call)
	case *ast.GoStmt:
		if c.mentionsV(st.Call) {
			c.escaped = true
		}
	case *ast.SendStmt:
		if c.mentionsV(st.Value) {
			c.escaped = true
		}
		c.scanExpr(st.Chan)
	case *ast.IfStmt:
		if st.Init != nil {
			c.scanStmt(st.Init, inDefer)
		}
		c.scanExpr(st.Cond)
		c.scanStmts(st.Body.List, inDefer)
		if st.Else != nil {
			c.scanStmt(st.Else, inDefer)
		}
	case *ast.BlockStmt:
		c.scanStmts(st.List, inDefer)
	case *ast.ForStmt:
		if st.Init != nil {
			c.scanStmt(st.Init, inDefer)
		}
		if st.Cond != nil {
			c.scanExpr(st.Cond)
		}
		if st.Post != nil {
			c.scanStmt(st.Post, inDefer)
		}
		c.scanStmts(st.Body.List, inDefer)
	case *ast.RangeStmt:
		c.scanExpr(st.X)
		c.scanStmts(st.Body.List, inDefer)
	case *ast.SwitchStmt:
		if st.Init != nil {
			c.scanStmt(st.Init, inDefer)
		}
		if st.Tag != nil {
			c.scanExpr(st.Tag)
		}
		c.scanStmts(st.Body.List, inDefer)
	case *ast.TypeSwitchStmt, *ast.SelectStmt:
		ast.Inspect(stmt, func(n ast.Node) bool {
			if inner, ok := n.(ast.Stmt); ok && inner != stmt {
				c.scanStmt(inner, inDefer)
				return false
			}
			return true
		})
	case *ast.CaseClause:
		for _, e := range st.List {
			c.scanExpr(e)
		}
		c.scanStmts(st.Body, inDefer)
	case *ast.CommClause:
		if st.Comm != nil {
			c.scanStmt(st.Comm, inDefer)
		}
		c.scanStmts(st.Body, inDefer)
	case *ast.LabeledStmt:
		c.scanStmt(st.Stmt, inDefer)
	case *ast.DeclStmt:
		if c.mentionsV(st) {
			c.escaped = true
		}
	}
}

// scanExpr classifies parameter uses inside one expression.
func (c *bufClassifier) scanExpr(expr ast.Expr) {
	if expr == nil {
		return
	}
	switch e := ast.Unparen(expr).(type) {
	case *ast.CallExpr:
		c.scanCall(e)
	case *ast.BinaryExpr:
		// buf == nil / buf != nil is a borrow.
		if c.isV(e.X) || c.isV(e.Y) {
			return
		}
		c.scanExpr(e.X)
		c.scanExpr(e.Y)
	case *ast.FuncLit:
		// A non-deferred closure capturing the buffer may stash it
		// anywhere; the deferred-closure release idiom is handled by
		// scanCall via DeferStmt.
		if c.mentionsV(e) {
			c.escaped = true
		}
	case *ast.Ident:
		if c.isV(e) {
			c.escaped = true // bare use in an unknown context
		}
	default:
		if c.mentionsV(expr) {
			c.escaped = true
		}
	}
}

// scanCall classifies a call involving the parameter: method calls on it
// and argument positions with summarized callees.
func (c *bufClassifier) scanCall(call *ast.CallExpr) {
	// Method call on the parameter itself.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && c.isV(sel.X) {
		switch {
		case IsMethod(c.site.info, call, BufPoolPath, "Buf", "Release"):
			c.released = true
		case bufBorrowMethods[sel.Sel.Name] && IsMethod(c.site.info, call, BufPoolPath, "Buf", sel.Sel.Name):
			// borrow
		default:
			c.escaped = true
		}
		for _, a := range call.Args {
			c.scanExpr(a)
		}
		return
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		// Immediately-invoked (or deferred) closure: its body runs here,
		// so releases inside count and stray captures are found by the
		// statement scan.
		c.scanStmts(lit.Body.List, false)
		for _, a := range call.Args {
			if c.isV(a) {
				c.escaped = true
				continue
			}
			c.scanExpr(a)
		}
		return
	}
	// Parameter passed by position to a summarized callee.
	args := CallArgs(c.site.info, call)
	sum := c.s.Callee(c.site.info, call)
	for i, a := range args {
		if !c.isV(a) {
			c.scanExpr(a)
			continue
		}
		mode := BufUnknown
		if sum != nil && i < len(sum.Bufs) {
			mode = sum.Bufs[i]
		}
		switch mode {
		case BufReleases:
			c.released = true
		case BufBorrows:
			// borrow: obligation stays with this function
		default:
			c.escaped = true
		}
	}
}

// mustRelease walks stmts path-sensitively checking that every exit has
// the parameter released. It returns (released at fallthrough, every
// exit so far released). A deferred release covers all later exits.
func mustRelease(c *bufClassifier, stmts []ast.Stmt, released bool) (bool, bool) {
	ok := true
	for _, stmt := range stmts {
		var term bool
		released, term, ok = mustReleaseStmt(c, stmt, released, ok)
		if term {
			return released, ok
		}
	}
	return released, ok
}

// mustReleaseStmt threads (released, allExitsOK) through one statement,
// additionally reporting whether the statement terminates the list.
func mustReleaseStmt(c *bufClassifier, stmt ast.Stmt, released, ok bool) (bool, bool, bool) {
	switch st := stmt.(type) {
	case *ast.ExprStmt:
		if call, isCall := st.X.(*ast.CallExpr); isCall {
			if releasesHere(c, call) {
				return true, true, ok
			}
			if id, isIdent := ast.Unparen(call.Fun).(*ast.Ident); isIdent && id.Name == "panic" {
				if _, isBuiltin := c.site.info.Uses[id].(*types.Builtin); isBuiltin {
					return released, false, ok // the program dies: no leak to report
				}
			}
		}
	case *ast.DeferStmt:
		if releasesHere(c, st.Call) {
			return true, false, ok
		}
	case *ast.ReturnStmt:
		return released, true, ok && released
	case *ast.IfStmt:
		if st.Init != nil {
			released, _, ok = mustReleaseStmt(c, st.Init, released, ok)
		}
		thenRel, thenOK := mustRelease(c, st.Body.List, released)
		thenTerm := terminates(st.Body.List)
		elseRel, elseOK, elseTerm := released, true, false
		if st.Else != nil {
			switch e := st.Else.(type) {
			case *ast.BlockStmt:
				elseRel, elseOK = mustRelease(c, e.List, released)
				elseTerm = terminates(e.List)
			default:
				elseRel, elseTerm, elseOK = mustReleaseStmt(c, st.Else, released, true)
			}
		}
		ok = ok && thenOK && elseOK
		switch {
		case thenTerm && elseTerm:
			return released, true, ok
		case thenTerm:
			return elseRel, false, ok
		case elseTerm:
			return thenRel, false, ok
		default:
			return thenRel && elseRel, false, ok
		}
	case *ast.BlockStmt:
		rel, blockOK := mustRelease(c, st.List, released)
		return rel, terminates(st.List), ok && blockOK
	case *ast.ForStmt:
		_, bodyOK := mustRelease(c, st.Body.List, released)
		return released, false, ok && bodyOK // body may run zero times
	case *ast.RangeStmt:
		_, bodyOK := mustRelease(c, st.Body.List, released)
		return released, false, ok && bodyOK
	case *ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt:
		// Conservative: each case body must keep exits clean; the merged
		// fallthrough state only counts as released if every case (and a
		// default) releases — rare enough that we simply require released
		// beforehand.
		allRel, haveDefault := true, false
		var body *ast.BlockStmt
		switch sw := stmt.(type) {
		case *ast.SwitchStmt:
			body = sw.Body
		case *ast.TypeSwitchStmt:
			body = sw.Body
		case *ast.SelectStmt:
			body = sw.Body
		}
		for _, cl := range body.List {
			var caseStmts []ast.Stmt
			switch cc := cl.(type) {
			case *ast.CaseClause:
				caseStmts = cc.Body
				if cc.List == nil {
					haveDefault = true
				}
			case *ast.CommClause:
				caseStmts = cc.Body
				if cc.Comm == nil {
					haveDefault = true
				}
			}
			rel, caseOK := mustRelease(c, caseStmts, released)
			ok = ok && caseOK
			if !rel && !terminates(caseStmts) {
				allRel = false
			}
		}
		return released || (allRel && haveDefault), false, ok
	case *ast.BranchStmt:
		// break/continue/goto with an unreleased pin: refuse must-release
		// rather than reason about loop structure.
		return released, true, ok && released
	case *ast.LabeledStmt:
		return mustReleaseStmt(c, st.Stmt, released, ok)
	}
	return released, false, ok
}

// terminates reports whether a statement list always exits the function
// (trailing return or panic).
func terminates(stmts []ast.Stmt) bool {
	if len(stmts) == 0 {
		return false
	}
	switch st := stmts[len(stmts)-1].(type) {
	case *ast.ReturnStmt:
		return true
	case *ast.ExprStmt:
		if call, ok := st.X.(*ast.CallExpr); ok {
			if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
				return true
			}
		}
	case *ast.BlockStmt:
		return terminates(st.List)
	}
	return false
}

// releasesHere reports whether call certainly releases the tracked
// parameter: v.Release(), a releasing summarized callee, or a deferred
// closure whose body releases unconditionally.
func releasesHere(c *bufClassifier, call *ast.CallExpr) bool {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && c.isV(sel.X) {
		return IsMethod(c.site.info, call, BufPoolPath, "Buf", "Release")
	}
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		rel, _ := mustRelease(c, lit.Body.List, false)
		return rel
	}
	args := CallArgs(c.site.info, call)
	sum := c.s.Callee(c.site.info, call)
	if sum == nil {
		return false
	}
	for i, a := range args {
		if c.isV(a) && i < len(sum.Bufs) && sum.Bufs[i] == BufReleases {
			return true
		}
	}
	return false
}

// --- result alias computation ------------------------------------------------

// taint tracks which parameters' memory (alias) and which Buf
// parameters' pinned frames (pageOf) a value may reach.
type taint struct {
	alias  uint64
	pageOf uint64
}

func (t taint) union(o taint) taint {
	return taint{alias: t.alias | o.alias, pageOf: t.pageOf | o.pageOf}
}

func (t taint) empty() bool { return t.alias == 0 && t.pageOf == 0 }

// aliasScan computes flow-insensitive taints for one function body.
type aliasScan struct {
	s    *Summaries
	site *declSite
	// paramIdx maps receiver-first parameters to their bit index.
	paramIdx map[*types.Var]int
	vars     map[*types.Var]taint
	changed  bool
}

// computeResultAliases fills sum.Results for site.
func computeResultAliases(s *Summaries, site *declSite, sum *FuncSummary) {
	if len(sum.Results) == 0 {
		return
	}
	a := &aliasScan{
		s:        s,
		site:     site,
		paramIdx: make(map[*types.Var]int, len(site.params)),
		vars:     make(map[*types.Var]taint),
	}
	for i, p := range site.params {
		if i >= 64 {
			break
		}
		a.paramIdx[p] = i
	}
	// Iterate the body until local taints stabilize (chains like
	// a := b[4:]; c := a resolve regardless of declaration order).
	for range [8]int{} {
		a.changed = false
		a.scanBody(site.decl.Body)
		if !a.changed {
			break
		}
	}
	// Collect return taints.
	results := make([]ResultAlias, len(sum.Results))
	sig := site.fn.Type().(*types.Signature)
	named := make([]*types.Var, 0, sig.Results().Len())
	for i := 0; i < sig.Results().Len(); i++ {
		named = append(named, sig.Results().At(i))
	}
	ast.Inspect(site.decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // closure returns are not this function's returns
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		switch {
		case len(ret.Results) == len(results):
			for i, r := range ret.Results {
				t := a.exprTaint(r)
				results[i].Aliases |= t.alias
				results[i].PageOf |= t.pageOf
			}
		case len(ret.Results) == 0:
			for i, v := range named {
				if v.Name() != "" && v.Name() != "_" {
					t := a.vars[v]
					results[i].Aliases |= t.alias
					results[i].PageOf |= t.pageOf
				}
			}
		case len(ret.Results) == 1:
			// return f() forwarding a multi-result call
			if call, ok := ret.Results[0].(*ast.CallExpr); ok {
				ts := a.callTaints(call, len(results))
				for i := range results {
					results[i].Aliases |= ts[i].alias
					results[i].PageOf |= ts[i].pageOf
				}
			}
		}
		return true
	})
	copy(sum.Results, results)
}

// taintable reports whether values of type t can carry an alias to page
// memory: slices, pointers, unsafe.Pointer, structs and arrays holding
// them. Scalars, strings (copied on conversion), funcs, chans, maps and
// interfaces do not propagate taint here.
func taintable(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Pointer:
		return true
	case *types.Basic:
		return u.Kind() == types.UnsafePointer
	case *types.Struct, *types.Array:
		return true
	}
	return false
}

func (a *aliasScan) setVar(v *types.Var, t taint) {
	if v == nil || t.empty() {
		return
	}
	old := a.vars[v]
	merged := old.union(t)
	if merged != old {
		a.vars[v] = merged
		a.changed = true
	}
}

func (a *aliasScan) scanBody(body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			a.scanAssign(st)
		case *ast.RangeStmt:
			if st.Value != nil {
				if v := defOrUseVar(a.site.info, st.Value); v != nil && taintable(v.Type()) {
					a.setVar(v, a.exprTaint(st.X))
				}
			}
		case *ast.ValueSpec:
			for i, val := range st.Values {
				if i < len(st.Names) {
					if v, ok := a.site.info.Defs[st.Names[i]].(*types.Var); ok {
						a.setVar(v, a.exprTaint(val))
					}
				}
			}
		}
		return true
	})
}

func (a *aliasScan) scanAssign(st *ast.AssignStmt) {
	if len(st.Lhs) > 1 && len(st.Rhs) == 1 {
		if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok {
			ts := a.callTaints(call, len(st.Lhs))
			for i, lhs := range st.Lhs {
				a.setVar(defOrUseVar(a.site.info, lhs), ts[i])
			}
			return
		}
	}
	for i, lhs := range st.Lhs {
		if i >= len(st.Rhs) {
			break
		}
		a.setVar(defOrUseVar(a.site.info, lhs), a.exprTaint(st.Rhs[i]))
	}
}

// callTaints computes the taints of a call's n results.
func (a *aliasScan) callTaints(call *ast.CallExpr, n int) []taint {
	out := make([]taint, n)
	// Conversions behave like a single-result call.
	if tv, ok := a.site.info.Types[call.Fun]; ok && tv.IsType() {
		if n == 1 {
			out[0] = a.conversionTaint(call)
		}
		return out
	}
	// Method call on a Buf parameter: Page() derives from its frame.
	// Checked before StaticCallee resolution — Page resolves to an
	// export-data *types.Func with no summary, and the callee branch
	// below returns without ever reaching a later check.
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && n == 1 {
		if IsMethod(a.site.info, call, BufPoolPath, "Buf", "Page") {
			if v := useVar(a.site.info, sel.X); v != nil {
				if idx, ok := a.paramIdx[v]; ok {
					out[0].pageOf |= 1 << uint(idx)
				}
			}
			return out
		}
	}
	if fn := StaticCallee(a.site.info, call); fn != nil {
		if sum := a.s.Lookup(fn); sum != nil {
			args := CallArgs(a.site.info, call)
			for ri := 0; ri < n && ri < len(sum.Results); ri++ {
				r := sum.Results[ri]
				for j, arg := range args {
					if j >= 64 {
						break
					}
					bit := uint64(1) << uint(j)
					if r.Aliases&bit != 0 {
						out[ri] = out[ri].union(a.exprTaint(arg))
					}
					if r.PageOf&bit != 0 {
						// The callee derives this result from arg j's
						// pinned frame: propagate only when arg j is one
						// of our own Buf parameters.
						if v := useVar(a.site.info, arg); v != nil {
							if idx, ok := a.paramIdx[v]; ok && isBufPtr(v.Type()) {
								out[ri].pageOf |= 1 << uint(idx)
							}
						}
					}
				}
			}
			return out
		}
		// unsafe.Slice / unsafe.SliceData / unsafe.Add keep pointing at
		// the argument's memory.
		if fn.Pkg() != nil && fn.Pkg().Path() == "unsafe" {
			var t taint
			for _, arg := range call.Args {
				t = t.union(a.exprTaint(arg))
			}
			if n > 0 {
				out[0] = t
			}
			return out
		}
		// Out-of-module callee: assumed non-aliasing. The audit scope is
		// this module's helpers; stdlib slice-returning helpers on page
		// bytes would be missed, a false-negative trade the analyzer
		// accepts to stay quiet.
		return out
	}
	// Builtins and dynamic calls.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if _, isBuiltin := a.site.info.Uses[id].(*types.Builtin); isBuiltin && n == 1 {
			switch id.Name {
			case "append":
				t := a.exprTaint(call.Args[0])
				for _, extra := range call.Args[1:] {
					if tv, ok := a.site.info.Types[extra]; ok && taintableElem(tv.Type, call.Ellipsis != token.NoPos) {
						t = t.union(a.exprTaint(extra))
					}
				}
				out[0] = t
			case "min", "max", "len", "cap", "copy", "make", "new", "clear":
				// no aliasing of interest (make/new allocate fresh)
			}
		}
	}
	return out
}

// taintableElem reports whether appending expr spreads taintable values:
// for append(x, y...) the element type of y, else the value itself.
func taintableElem(t types.Type, ellipsis bool) bool {
	if ellipsis {
		if sl, ok := t.Underlying().(*types.Slice); ok {
			return taintable(sl.Elem())
		}
		return false
	}
	return taintable(t)
}

// conversionTaint handles T(x): slice/pointer reinterpretations alias,
// string round-trips copy.
func (a *aliasScan) conversionTaint(call *ast.CallExpr) taint {
	if len(call.Args) != 1 {
		return taint{}
	}
	dst := a.site.info.Types[call.Fun].Type
	src := a.site.info.Types[call.Args[0]].Type
	if dst == nil || src == nil {
		return taint{}
	}
	dstPtr := taintable(dst)
	srcPtr := taintable(src)
	if dstPtr && srcPtr {
		return a.exprTaint(call.Args[0])
	}
	return taint{}
}

// exprTaint computes the taint of one expression.
func (a *aliasScan) exprTaint(expr ast.Expr) taint {
	switch e := ast.Unparen(expr).(type) {
	case *ast.Ident:
		if v, ok := a.site.info.Uses[e].(*types.Var); ok {
			t := a.vars[v]
			if idx, ok := a.paramIdx[v]; ok && taintable(v.Type()) {
				t.alias |= 1 << uint(idx)
			}
			return t
		}
	case *ast.SelectorExpr:
		if sel, ok := a.site.info.Selections[e]; ok && sel.Kind() == types.FieldVal {
			if taintable(sel.Type()) {
				return a.exprTaint(e.X)
			}
		}
	case *ast.IndexExpr:
		if tv, ok := a.site.info.Types[e]; ok && taintable(tv.Type) {
			return a.exprTaint(e.X)
		}
	case *ast.SliceExpr:
		return a.exprTaint(e.X)
	case *ast.StarExpr:
		return a.exprTaint(e.X)
	case *ast.UnaryExpr:
		if e.Op == token.AND {
			// &x[i] aliases x's backing array whatever the element type.
			if idx, ok := ast.Unparen(e.X).(*ast.IndexExpr); ok {
				return a.exprTaint(idx.X).union(a.exprTaint(e.X))
			}
			return a.exprTaint(e.X)
		}
	case *ast.CompositeLit:
		var t taint
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			t = t.union(a.exprTaint(el))
		}
		return t
	case *ast.CallExpr:
		return a.callTaints(e, 1)[0]
	case *ast.TypeAssertExpr:
		return a.exprTaint(e.X)
	}
	return taint{}
}

// defOrUseVar resolves an assignment target to its variable.
func defOrUseVar(info *types.Info, expr ast.Expr) *types.Var {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return nil
	}
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := info.Uses[id].(*types.Var)
	return v
}

// useVar resolves an expression to the variable it reads.
func useVar(info *types.Info, expr ast.Expr) *types.Var {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return nil
	}
	if v, ok := info.Uses[id].(*types.Var); ok {
		return v
	}
	v, _ := info.Defs[id].(*types.Var)
	return v
}

// --- pin transfer detection ---------------------------------------------------

// transfersPin reports whether site returns a *Buf that carries a live
// pin: a Pin/NewPage result or the result of another transferring
// function, possibly via an intermediate variable.
func transfersPin(s *Summaries, site *declSite) bool {
	info := site.info
	// Vars bound (anywhere) to an acquiring call.
	carriers := make(map[*types.Var]bool)
	acquires := func(call *ast.CallExpr) bool {
		if IsMethod(info, call, BufPoolPath, "Pool", "Pin") || IsMethod(info, call, BufPoolPath, "Pool", "NewPage") {
			return true
		}
		if sum := s.Callee(info, call); sum != nil && sum.TransfersPin {
			return true
		}
		return false
	}
	ast.Inspect(site.decl.Body, func(n ast.Node) bool {
		st, ok := n.(*ast.AssignStmt)
		if !ok || len(st.Rhs) != 1 {
			return true
		}
		call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr)
		if !ok || !acquires(call) {
			return true
		}
		if v := defOrUseVar(info, st.Lhs[0]); v != nil && isBufPtr(v.Type()) {
			carriers[v] = true
		}
		return true
	})
	found := false
	ast.Inspect(site.decl.Body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, r := range ret.Results {
			if v := useVar(info, r); v != nil && carriers[v] {
				found = true
			}
			if call, ok := ast.Unparen(r).(*ast.CallExpr); ok && acquires(call) {
				found = true
			}
		}
		return true
	})
	return found
}
