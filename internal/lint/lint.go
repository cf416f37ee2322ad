// Package lint implements ebda-lint: a suite of static analyzers that
// mechanically enforce the engine's determinism, concurrency and hot-path
// invariants at the Go-source level.
//
// The verification fast path built in earlier iterations rests on
// properties nothing in the type system checks: results must be
// bit-identical on every run, fingerprints must be
// order-independent, shared caches must be reached through their mutexes,
// and the annotated hot functions must stay allocation-lean. The four
// analyzers here — detlint, locklint, hotpath and verifygate — turn those
// conventions into machine-checked rules, in the spirit of verifying the
// checker itself (Verbeek & Schmaltz).
//
// The framework mirrors golang.org/x/tools/go/analysis (Analyzer, Pass,
// Diagnostic) but is built on the standard library alone, because this
// module is dependency-free by policy. Migrating an analyzer to the real
// go/analysis API is a mechanical change of imports.
//
// Directives understood in source comments:
//
//	//ebda:hotpath
//	    on a function's doc comment: the function is part of the
//	    verification hot path; the hotpath analyzer checks its body for
//	    allocation hazards.
//
//	//ebda:allow <analyzer> [reason...]
//	    on the flagged line or the line directly above it: suppress that
//	    analyzer's diagnostics for the line. Used where a finding is
//	    deliberate (e.g. the bench harness reading the wall clock).
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer is one static check. It mirrors the shape of
// golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //ebda:allow comments.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run analyzes one package and reports findings through the pass.
	Run func(*Pass) error
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	// PkgPath is the package's import path (e.g. "ebda/internal/cdg").
	PkgPath string
	Info    *types.Info
	// pkg is the loaded package behind the pass; interprocedural
	// analyzers (deadlint) use it to reach module-local imports.
	pkg    *Package
	report func(Diagnostic)
}

// Reportf records a diagnostic at a position.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of an expression, or nil.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	if t, ok := p.Info.Types[e]; ok {
		return t.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := p.Info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// Diagnostic is one finding, with its position already resolved.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// All returns the full ebda-lint suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{Detlint, Locklint, Hotpath, Verifygate, Deadlint, Ctxlint}
}

// Run applies the analyzers to a loaded package, drops diagnostics
// suppressed by //ebda:allow comments, and returns the rest sorted by
// position.
func Run(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	allow := allowedLines(pkg)
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     pkg.Fset,
			Files:    pkg.Files,
			Pkg:      pkg.Types,
			PkgPath:  pkg.Path,
			Info:     pkg.Info,
			pkg:      pkg,
		}
		pass.report = func(d Diagnostic) {
			if allow.suppressed(d) {
				return
			}
			out = append(out, d)
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		if out[i].Pos.Line != out[j].Pos.Line {
			return out[i].Pos.Line < out[j].Pos.Line
		}
		if out[i].Pos.Column != out[j].Pos.Column {
			return out[i].Pos.Column < out[j].Pos.Column
		}
		if out[i].Analyzer != out[j].Analyzer {
			return out[i].Analyzer < out[j].Analyzer
		}
		// Secondary sort on the message: a single analyzer can report
		// more than once at one position (deadlint's per-cycle-edge
		// diagnostics do), and golden tests, -json and SARIF output all
		// need byte-deterministic ordering for that case too.
		return out[i].Message < out[j].Message
	})
	return out, nil
}

// allowSet records, per file and line, the analyzer names suppressed by
// //ebda:allow comments on that line.
type allowSet map[string]map[int][]string

// suppressed reports whether the diagnostic's line, or the line directly
// above it, carries a matching //ebda:allow comment.
func (s allowSet) suppressed(d Diagnostic) bool {
	lines := s[d.Pos.Filename]
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		for _, name := range lines[line] {
			if name == d.Analyzer {
				return true
			}
		}
	}
	return false
}

// allowedLines scans every comment of the package for //ebda:allow
// directives.
func allowedLines(pkg *Package) allowSet {
	out := allowSet{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, "//ebda:allow")
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				m := out[pos.Filename]
				if m == nil {
					m = map[int][]string{}
					out[pos.Filename] = m
				}
				m[pos.Line] = append(m[pos.Line], fields[0])
			}
		}
	}
	return out
}

// hasDirective reports whether a doc comment group contains the given
// //ebda:<name> directive on a line of its own.
func hasDirective(doc *ast.CommentGroup, name string) bool {
	if doc == nil {
		return false
	}
	want := "//ebda:" + name
	for _, c := range doc.List {
		text := strings.TrimSpace(c.Text)
		if text == want || strings.HasPrefix(text, want+" ") {
			return true
		}
	}
	return false
}

// calleeObject resolves the object a call expression invokes: a package
// function, a method, or a builtin. Returns nil for calls through
// function-typed values and type conversions.
func calleeObject(info *types.Info, call *ast.CallExpr) types.Object {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.ObjectOf(fun)
	case *ast.SelectorExpr:
		return info.ObjectOf(fun.Sel)
	}
	return nil
}

// isPkgFunc reports whether obj is the function pkgPath.name.
func isPkgFunc(obj types.Object, pkgPath, name string) bool {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return false
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
		return false
	}
	return fn.Pkg().Path() == pkgPath && fn.Name() == name
}

// rootIdent peels selectors, indexing, parens, stars and slicing down to
// the leftmost identifier of an expression, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// funcBodies yields every function body of a file (declarations only;
// nested literals are walked as part of their enclosing declaration) with
// its declaration.
func funcBodies(f *ast.File) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
			out = append(out, fd)
		}
	}
	return out
}

// within reports whether pos falls inside node's source range.
func within(pos token.Pos, node ast.Node) bool {
	return node.Pos() <= pos && pos < node.End()
}
