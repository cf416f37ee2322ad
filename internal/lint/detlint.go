package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Detlint flags nondeterminism in paths that must be reproducible:
//
//   - iteration over a map whose body makes the iteration order
//     observable — appending to a slice declared outside the loop without
//     sorting it afterwards, printing, or feeding a writer/hash;
//   - wall-clock reads (time.Now, time.Since) — timings belong to the
//     bench harness, which marks its sites with //ebda:allow detlint;
//   - the global math/rand RNG (rand.Intn and friends), which is not
//     seed-reproducible; all randomness must flow through
//     rand.New(rand.NewSource(seed)) as the simulator does.
//
// The engine's contract is bit-identical output for every process run
// (and, for ebda-repro and the seed replicator, for every -jobs value);
// each of these constructs breaks that silently.
var Detlint = &Analyzer{
	Name: "detlint",
	Doc:  "flags map-iteration-order leaks, wall-clock reads and unseeded randomness in deterministic paths",
	Run:  runDetlint,
}

// globalRandFuncs are the math/rand (and math/rand/v2) package-level
// functions that draw from the shared, unseeded RNG. Constructors (New,
// NewSource, NewZipf, NewPCG, NewChaCha8) are the sanctioned plumbing and
// stay allowed.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Int32": true, "Int32N": true,
	"Int64": true, "Int64N": true, "IntN": true, "N": true,
	"Uint32": true, "Uint64": true, "Uint32N": true, "Uint64N": true,
	"Uint": true, "UintN": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
}

// outputFuncs are fmt functions that emit directly to a stream; calling
// one inside map iteration makes the map's order user-visible.
var outputFuncs = map[string]bool{
	"Print": true, "Printf": true, "Println": true,
	"Fprint": true, "Fprintf": true, "Fprintln": true,
}

// writeMethods are method names that feed byte sinks (io.Writer
// implementations, strings.Builder, hash.Hash): calling one inside map
// iteration leaks the order into output or a digest.
var writeMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

func runDetlint(pass *Pass) error {
	for _, f := range pass.Files {
		for _, fd := range funcBodies(f) {
			detlintFunc(pass, fd)
		}
	}
	return nil
}

func detlintFunc(pass *Pass, fd *ast.FuncDecl) {
	// Pass 1 over the whole function: clock and global-RNG uses, and
	// collect every map-range statement.
	var mapRanges []*ast.RangeStmt
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			obj := calleeObject(pass.Info, x)
			if isPkgFunc(obj, "time", "Now") || isPkgFunc(obj, "time", "Since") {
				pass.Reportf(x.Pos(), "wall-clock read (%s) in a deterministic path; inject timestamps or mark the bench-harness site with //ebda:allow detlint", objName(obj))
			}
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil {
				// Only package-level functions draw from the shared RNG;
				// the same names as methods on a *rand.Rand are the
				// sanctioned seeded plumbing.
				sig, _ := fn.Type().(*types.Signature)
				p := fn.Pkg().Path()
				if sig != nil && sig.Recv() == nil &&
					(p == "math/rand" || p == "math/rand/v2") && globalRandFuncs[fn.Name()] {
					pass.Reportf(x.Pos(), "global math/rand RNG (rand.%s) is not seed-reproducible; use rand.New(rand.NewSource(seed))", fn.Name())
				}
			}
		case *ast.RangeStmt:
			if t := pass.TypeOf(x.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					mapRanges = append(mapRanges, x)
				}
			}
		}
		return true
	})
	for _, rs := range mapRanges {
		detlintMapRange(pass, fd, rs)
	}
}

// detlintMapRange checks one range-over-map body for order leaks.
func detlintMapRange(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt) {
	type appendSite struct {
		obj types.Object
		pos token.Pos
	}
	var appends []appendSite
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := calleeObject(pass.Info, call)
		if b, ok := obj.(*types.Builtin); ok && b.Name() == "append" && len(call.Args) > 0 {
			if root := rootIdent(call.Args[0]); root != nil {
				if v := pass.Info.ObjectOf(root); v != nil && !within(v.Pos(), rs) {
					appends = append(appends, appendSite{obj: v, pos: call.Pos()})
				}
			}
			return true
		}
		if fn, ok := obj.(*types.Func); ok {
			if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" && outputFuncs[fn.Name()] {
				pass.Reportf(call.Pos(), "output written inside iteration over a map; map order is nondeterministic — sort the keys first")
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && writeMethods[fn.Name()] {
				pass.Reportf(call.Pos(), "%s fed inside iteration over a map; map order is nondeterministic — sort the keys first", fn.Name())
				return true
			}
			if isPkgFunc(fn, "io", "WriteString") {
				pass.Reportf(call.Pos(), "output written inside iteration over a map; map order is nondeterministic — sort the keys first")
			}
		}
		return true
	})
	for _, a := range appends {
		if !sortedAfter(pass, fd, rs, a.obj) {
			pass.Reportf(a.pos, "slice %s accumulates map-iteration results but is never sorted afterwards in %s; map order is nondeterministic", a.obj.Name(), fd.Name.Name)
		}
	}
}

// sortedAfter reports whether obj is passed to a sort/slices sorting call
// (or a .Sort method) positioned after the range statement within the
// same function.
func sortedAfter(pass *Pass, fd *ast.FuncDecl, rs *ast.RangeStmt, obj types.Object) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		callee := calleeObject(pass.Info, call)
		fn, ok := callee.(*types.Func)
		if !ok {
			return true
		}
		sorter := false
		if fn.Pkg() != nil {
			switch fn.Pkg().Path() {
			case "sort", "slices":
				sorter = true
			}
		}
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil && fn.Name() == "Sort" {
			sorter = true
		}
		if !sorter {
			return true
		}
		for _, arg := range call.Args {
			if mentionsObject(pass, arg, obj) {
				found = true
				return false
			}
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok && mentionsObject(pass, sel.X, obj) {
			found = true
			return false
		}
		return true
	})
	return found
}

// mentionsObject reports whether any identifier under e resolves to obj.
func mentionsObject(pass *Pass, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.Info.ObjectOf(id) == obj {
			found = true
			return false
		}
		return !found
	})
	return found
}

func objName(obj types.Object) string {
	if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + fn.Name()
	}
	return obj.Name()
}
