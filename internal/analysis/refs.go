// refs.go adds a module-wide reference index to the summary table: which
// functions the loaded files name, and which interfaces their types may
// satisfy. deadexport asks it whether anything outside a test still runs
// an exported function.
//
// Like the buffer summaries, identity is by (*types.Func).FullName(), and
// interface satisfaction compares method signatures as strings qualified
// by package path: a package type-checked from source and the same
// package read from export data by its importers are distinct
// *types.Package values, so pointer identity would miss every
// cross-package match.

package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// indexRefs records every function the inputs name outside its own
// declaration, and indexes by method name every interface that can
// reach a value of a loaded type: the interfaces the loaded files
// mention, every package-level interface of every package they import
// (directly or not — fmt.Stringer is satisfied without being named),
// and error.
func (s *Summaries) indexRefs(inputs []SummaryInput) {
	s.uses = make(map[string]bool)
	s.ifaces = make(map[string][]*types.Interface)
	seen := make(map[*types.Interface]bool)
	addIface := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			name := it.Method(i).Name()
			s.ifaces[name] = append(s.ifaces[name], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type())

	visited := make(map[*types.Package]bool)
	var walkPkg func(p *types.Package)
	walkPkg = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
				addIface(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walkPkg(imp)
		}
	}

	for _, in := range inputs {
		walkPkg(in.Pkg)
		for _, tv := range in.Info.Types {
			if tv.Type != nil {
				addIface(tv.Type)
			}
		}
		for _, file := range in.Files {
			for _, decl := range file.Decls {
				var self string
				if fd, ok := decl.(*ast.FuncDecl); ok {
					if fn, ok := in.Info.Defs[fd.Name].(*types.Func); ok {
						self = fn.FullName()
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					if fn, ok := in.Info.Uses[id].(*types.Func); ok {
						if name := fn.Origin().FullName(); name != self {
							s.uses[name] = true
						}
					}
					return true
				})
			}
		}
	}
}

// Referenced reports whether a loaded file names fn outside fn's own
// declaration. Only meaningful when the table spans the whole module
// (see Partial).
func (s *Summaries) Referenced(fn *types.Func) bool {
	return s.uses[fn.Origin().FullName()]
}

// SatisfiesUsedInterface reports whether method fn belongs to the method
// set of a type that satisfies an interface from the index that has a
// method of fn's name: a call through that interface reaches fn without
// naming it.
func (s *Summaries) SatisfiesUsedInterface(fn *types.Func) bool {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if _, ok := t.(*types.Pointer); !ok {
		t = types.NewPointer(t)
	}
	mset := types.NewMethodSet(t)
	have := make(map[string]string, mset.Len())
	for i := 0; i < mset.Len(); i++ {
		m := mset.At(i).Obj()
		have[m.Name()] = sigString(m.Type())
	}
	for _, it := range s.ifaces[fn.Name()] {
		ok := true
		for i := 0; i < it.NumMethods() && ok; i++ {
			m := it.Method(i)
			ok = have[m.Name()] == sigString(m.Type())
		}
		if ok {
			return true
		}
	}
	return false
}

// sigString prints a signature's parameter and result types, without
// names or receiver, qualifying named types by full package path so the
// same type reads the same from source and from export data.
func sigString(t types.Type) string {
	sig := t.(*types.Signature)
	qual := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	for _, tuple := range []*types.Tuple{sig.Params(), sig.Results()} {
		b.WriteByte('(')
		for i := 0; i < tuple.Len(); i++ {
			b.WriteString(types.TypeString(tuple.At(i).Type(), qual))
			b.WriteByte(',')
		}
		b.WriteByte(')')
	}
	if sig.Variadic() {
		b.WriteString("...")
	}
	return b.String()
}
