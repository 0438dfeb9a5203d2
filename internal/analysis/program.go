package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Whole-program view. PR 4's analyzers were AST-local: each judged one
// package in isolation, which is enough for "don't range over a map into a
// writer" but not for the invariants the multi-standard backend refactor
// leans on. Whether a //hot:path function allocates depends on what its callees
// do; whether a fingerprint covers a config knob depends on code in a
// different package (the cmd front-ends build the fingerprint, internal/core
// declares the knob); whether shard-isolated code can reach the barrier
// section is a reachability question over the entire module. Program indexes
// every loaded package once — declarations, a reference graph, directive
// annotations — so those analyzers share one traversal instead of each
// re-walking the world.

// FuncInfo pairs a declared function with the package that declares it.
type FuncInfo struct {
	Decl *ast.FuncDecl
	Pkg  *Package

	refs []*types.Func // lazily computed program-local references
}

// Program is the whole-module index handed to program-level analyzers.
type Program struct {
	Pkgs []*Package
	Fset *token.FileSet
	// Funcs maps every declared function or method with a body to its
	// declaration, across all loaded packages.
	Funcs map[*types.Func]*FuncInfo

	fileOwner map[string]*Package
	// byKey maps a stable (package path, receiver, name) key to the
	// source-checked declaration, to bridge the object-identity split
	// described at canon.
	byKey map[string]*types.Func
}

// BuildProgram indexes the loaded packages. The same Fset must underlie all
// of them (Load guarantees this for one call; callers merging Loads must not).
func BuildProgram(pkgs []*Package) *Program {
	p := &Program{
		Pkgs:      pkgs,
		Funcs:     map[*types.Func]*FuncInfo{},
		fileOwner: map[string]*Package{},
		byKey:     map[string]*types.Func{},
	}
	if len(pkgs) > 0 {
		p.Fset = pkgs[0].Fset
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			p.fileOwner[pkg.Fset.Position(file.Pos()).Filename] = pkg
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				if fn, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
					p.Funcs[fn] = &FuncInfo{Decl: fd, Pkg: pkg}
					if k := funcKey(fn); k != "" {
						p.byKey[k] = fn
					}
				}
			}
		}
	}
	return p
}

// funcKey renders a stable cross-package identity for a declared function or
// method: "pkgpath.Recv.Name". Pointer receivers are normalised to the base
// type (a name can only be bound once per base type, so this is unambiguous).
func funcKey(f *types.Func) string {
	if f.Pkg() == nil {
		return ""
	}
	key := f.Pkg().Path() + "."
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return ""
		}
		key += named.Obj().Name() + "."
	}
	return key + f.Name()
}

// canon maps a *types.Func to the source-checked declaration Program indexed.
// Object identity splits across packages: internal/core type-checked from
// source yields one *types.Func per method, but a package that imports it
// resolves the same method through gc export data to a different object.
// Without canonicalisation every cross-package edge in the reference graph —
// a cmd front-end calling core.NewController, a callback naming a barrier
// method — would silently fail the Funcs lookup and vanish. canon returns f
// unchanged when it has no declared counterpart (stdlib, interface methods).
func (p *Program) canon(f *types.Func) *types.Func {
	if f == nil {
		return nil
	}
	if _, ok := p.Funcs[f]; ok {
		return f
	}
	if c, ok := p.byKey[funcKey(f)]; ok {
		return c
	}
	return f
}

// Owner returns the package owning the file at pos, or nil.
func (p *Program) Owner(pos token.Pos) *Package {
	return p.fileOwner[p.Fset.Position(pos).Filename]
}

// FuncAt resolves the *types.Func for a declaration in pkg.
func (p *Program) FuncAt(pkg *Package, fd *ast.FuncDecl) *types.Func {
	fn, _ := pkg.Info.Defs[fd.Name].(*types.Func)
	return fn
}

// Refs returns every program-local function referenced (called, taken as a
// value, assigned to a field) inside fn's body, including inside function
// literals it declares. Treating a reference as a potential call makes
// reachability conservative in the presence of function-valued fields (the
// link's deliver hook), which is the right direction for an isolation
// checker: a function whose address escapes into a callback slot may run
// wherever that slot is invoked.
func (p *Program) Refs(fn *types.Func) []*types.Func {
	fi := p.Funcs[fn]
	if fi == nil {
		return nil
	}
	if fi.refs == nil {
		fi.refs = p.refsIn(fi.Pkg, fi.Decl.Body)
		if len(fi.refs) == 0 {
			fi.refs = []*types.Func{} // distinguish "computed, empty" from "not yet"
		}
	}
	return fi.refs
}

// refsIn collects program-local functions referenced under root.
func (p *Program) refsIn(pkg *Package, root ast.Node) []*types.Func {
	seen := map[*types.Func]bool{}
	var out []*types.Func
	ast.Inspect(root, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		f, ok := pkg.Info.Uses[id].(*types.Func)
		if !ok {
			return true
		}
		f = p.canon(f) // cross-package uses resolve to import-loaded objects
		if seen[f] {
			return true
		}
		if _, local := p.Funcs[f]; local {
			seen[f] = true
			out = append(out, f)
		}
		return true
	})
	// Deterministic order for deterministic finding order downstream.
	sort.Slice(out, func(i, j int) bool {
		return p.Fset.Position(out[i].Pos()).Offset < p.Fset.Position(out[j].Pos()).Offset
	})
	return out
}

// ReachableFrom walks the reference graph from the given roots and returns,
// for every function reached, the edge it was first reached through (for
// path reconstruction in messages). Roots map to a nil predecessor.
func (p *Program) ReachableFrom(roots []*types.Func) map[*types.Func]*types.Func {
	pred := map[*types.Func]*types.Func{}
	queue := make([]*types.Func, 0, len(roots))
	for _, r := range roots {
		if _, ok := pred[r]; !ok {
			pred[r] = nil
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, callee := range p.Refs(fn) {
			if _, ok := pred[callee]; ok {
				continue
			}
			pred[callee] = fn
			queue = append(queue, callee)
		}
	}
	return pred
}

// PathTo reconstructs the root→fn chain from a ReachableFrom predecessor map
// as "a → b → c" using package-qualified names.
func (p *Program) PathTo(pred map[*types.Func]*types.Func, fn *types.Func) string {
	var chain []string
	for f := fn; f != nil; f = pred[f] {
		chain = append(chain, FuncDisplayName(f))
		if pred[f] == nil {
			break
		}
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return strings.Join(chain, " -> ")
}

// FuncDisplayName renders a function for messages: "pkg.Name" or
// "pkg.(*Recv).Name".
func FuncDisplayName(f *types.Func) string {
	name := f.Name()
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		star := ""
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
			star = "*"
		}
		if named, ok := t.(*types.Named); ok {
			name = "(" + star + named.Obj().Name() + ")." + name
		}
	}
	if f.Pkg() != nil {
		if parts := strings.Split(f.Pkg().Path(), "/"); len(parts) > 0 {
			name = parts[len(parts)-1] + "." + name
		}
	}
	return name
}

// ProgramPass is the whole-program analogue of Pass.
type ProgramPass struct {
	Analyzer *Analyzer
	Prog     *Program

	findings *[]Finding
}

// Reportf records a finding at pos; the runner attributes it to the owning
// package for suppression and policy scoping.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...any) {
	*p.findings = append(*p.findings, Finding{
		Pos:      p.Prog.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Directives.
//
// The annotation vocabulary (see DESIGN.md §15):
//
//	//hot:path                — function must stay allocation-free (hotalloc)
//	//shard:barrier           — function may only run in the single-threaded
//	                            barrier section (shardiso)
//	//fp:check                — struct's behavior-shaping fields must be
//	                            fingerprinted (fpcover)
//	//fp:skip <reason>        — field deliberately outside the fingerprint
//	//ckpt:skip <reason>      — field deliberately outside Save/Restore
//	//lint:allow <a> <reason> — suppress one finding (suppress.go)
//
// A directive is its own comment line: "//hot:path", optionally followed by
// a space and a note ("//hot:path FR-FCFS scan"). "//hot:pathological" does
// not match. Every directive follows gofmt's //name:value shape on purpose:
// the doc-comment formatter (Go ≥1.19) inserts a space into any other
// comment form ("//hot" becomes "// hot"), silently detaching it.

// commentDirective reports whether any line of the comment groups is the
// given directive, returning its trailing note.
func commentDirective(name string, groups ...*ast.CommentGroup) (note string, ok bool) {
	prefix := "//" + name
	for _, cg := range groups {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, prefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, prefix)
			if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
				continue
			}
			return strings.TrimSpace(rest), true
		}
	}
	return "", false
}

// FuncDirective reports whether fd's doc comment carries the directive.
func FuncDirective(fd *ast.FuncDecl, name string) (string, bool) {
	return commentDirective(name, fd.Doc)
}

// DirectiveFuncs returns every declared function annotated with the
// directive, in deterministic (file, offset) order.
func (p *Program) DirectiveFuncs(name string) []*types.Func {
	var out []*types.Func
	for fn, fi := range p.Funcs {
		if _, ok := FuncDirective(fi.Decl, name); ok {
			out = append(out, fn)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		pi, pj := p.Fset.Position(out[i].Pos()), p.Fset.Position(out[j].Pos())
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		return pi.Offset < pj.Offset
	})
	return out
}

// typeSpecDirective reports whether a type declaration carries the directive,
// checking both the TypeSpec's own doc and the enclosing GenDecl's.
func typeSpecDirective(gd *ast.GenDecl, ts *ast.TypeSpec, name string) bool {
	if _, ok := commentDirective(name, ts.Doc, ts.Comment); ok {
		return true
	}
	if len(gd.Specs) == 1 {
		_, ok := commentDirective(name, gd.Doc)
		return ok
	}
	return false
}
