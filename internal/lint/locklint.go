package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Locklint enforces the repository's mutex convention on shared state:
//
//   - in any struct declaring a field `mu sync.Mutex` or `mu
//     sync.RWMutex`, every field declared after mu (the Go convention:
//     "mu guards the fields below") is a guarded field — except
//     sync/atomic values, which carry their own synchronisation. Every
//     read or write of a guarded field must be preceded, somewhere
//     earlier in the same function, by a Lock or RLock call on the same
//     receiver's mu. This is how cdg.Cache.m, the WorkspacePool
//     free lists and routing.FromChain's reachability memo stay
//     race-free;
//   - goroutines launched inside loops must receive loop variables as
//     arguments rather than capturing them, as the repository's worker
//     pools do (per-iteration semantics make capture safe since Go 1.22,
//     but explicit passing keeps worker identity obvious and the code
//     portable).
//
// The check is flow-insensitive by design: it catches the
// forgot-to-lock-entirely class of bug, which is the one a refactor
// introduces. Deliberate unlocked access (e.g. in a constructor before
// the value escapes) is recognised when the receiver is a local built
// from a composite literal; anything else can carry //ebda:allow
// locklint with a justification.
var Locklint = &Analyzer{
	Name: "locklint",
	Doc:  "flags guarded-field access without the guarding mutex and loop-variable capture in goroutines",
	Run:  runLocklint,
}

func runLocklint(pass *Pass) error {
	guarded := guardedFields(pass)
	for _, f := range pass.Files {
		for _, fd := range funcBodies(f) {
			if len(guarded) > 0 {
				locklintFunc(pass, fd, guarded)
			}
			goroutineCapture(pass, fd)
		}
	}
	return nil
}

// guardedFields collects the fields of package-level struct types that
// follow a `mu` mutex field.
func guardedFields(pass *Pass) map[*types.Var]string {
	out := map[*types.Var]string{}
	scope := pass.Pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		muIndex := -1
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() == "mu" && isMutex(f.Type()) {
				muIndex = i
				break
			}
		}
		if muIndex < 0 {
			continue
		}
		for i := muIndex + 1; i < st.NumFields(); i++ {
			f := st.Field(i)
			if syncOwnType(f.Type()) {
				continue
			}
			out[f] = tn.Name()
		}
	}
	return out
}

// isMutex reports whether t is sync.Mutex or sync.RWMutex.
func isMutex(t types.Type) bool {
	s := t.String()
	return s == "sync.Mutex" || s == "sync.RWMutex"
}

// syncOwnType reports whether a field type synchronises itself (sync or
// sync/atomic values), exempting it from the mu-guard rule.
func syncOwnType(t types.Type) bool {
	s := t.String()
	return strings.HasPrefix(s, "sync.") || strings.HasPrefix(s, "sync/atomic.") || strings.HasPrefix(s, "atomic.")
}

// locklintFunc checks every guarded-field access in one function.
func locklintFunc(pass *Pass, fd *ast.FuncDecl, guarded map[*types.Var]string) {
	// Collect lock events: receiver-object -> positions of x.mu.Lock() /
	// x.mu.RLock() calls.
	locks := map[types.Object][]token.Pos{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || (sel.Sel.Name != "Lock" && sel.Sel.Name != "RLock") {
			return true
		}
		mu, ok := sel.X.(*ast.SelectorExpr)
		if !ok || mu.Sel.Name != "mu" {
			return true
		}
		if root := rootIdent(mu.X); root != nil {
			if obj := pass.Info.ObjectOf(root); obj != nil {
				locks[obj] = append(locks[obj], call.Pos())
			}
		}
		return true
	})
	locals := freshLocals(pass, fd)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		selection, ok := pass.Info.Selections[sel]
		if !ok || selection.Kind() != types.FieldVal {
			return true
		}
		field, ok := selection.Obj().(*types.Var)
		if !ok {
			return true
		}
		owner, isGuarded := guarded[field]
		if !isGuarded {
			return true
		}
		root := rootIdent(sel.X)
		if root == nil {
			return true
		}
		recv := pass.Info.ObjectOf(root)
		if recv == nil || locals[recv] {
			return true
		}
		for _, pos := range locks[recv] {
			if pos < sel.Pos() {
				return true
			}
		}
		pass.Reportf(sel.Pos(), "%s.%s is guarded by mu; no %s.mu.Lock()/RLock() precedes this access in %s", owner, field.Name(), root.Name, fd.Name.Name)
		return true
	})
}

// freshLocals returns the objects of local variables initialised from a
// composite literal or new() in this function — values that have not
// escaped and may be filled without holding their mutex (the constructor
// pattern).
func freshLocals(pass *Pass, fd *ast.FuncDecl) map[types.Object]bool {
	out := map[types.Object]bool{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.DEFINE || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if freshAlloc(pass, as.Rhs[i]) {
				if obj := pass.Info.ObjectOf(id); obj != nil {
					out[obj] = true
				}
			}
		}
		return true
	})
	return out
}

// freshAlloc reports whether e allocates a brand-new value: &T{...},
// T{...} or new(T).
func freshAlloc(pass *Pass, e ast.Expr) bool {
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		return true
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			_, ok := ast.Unparen(x.X).(*ast.CompositeLit)
			return ok
		}
	case *ast.CallExpr:
		if b, ok := calleeObject(pass.Info, x).(*types.Builtin); ok && b.Name() == "new" {
			return true
		}
	}
	return false
}

// goroutineCapture flags `go func() { ... }()` literals that reference an
// enclosing loop variable instead of receiving it as an argument.
func goroutineCapture(pass *Pass, fd *ast.FuncDecl) {
	type loopFrame struct {
		node ast.Node
		vars map[types.Object]string
	}
	var loops []loopFrame
	var visit func(n ast.Node)
	collectVars := func(n ast.Node) map[types.Object]string {
		vars := map[types.Object]string{}
		addIdent := func(e ast.Expr) {
			if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
				if obj := pass.Info.Defs[id]; obj != nil {
					vars[obj] = id.Name
				}
			}
		}
		switch x := n.(type) {
		case *ast.RangeStmt:
			addIdent(x.Key)
			if x.Value != nil {
				addIdent(x.Value)
			}
		case *ast.ForStmt:
			if init, ok := x.Init.(*ast.AssignStmt); ok && init.Tok == token.DEFINE {
				for _, lhs := range init.Lhs {
					addIdent(lhs)
				}
			}
		}
		return vars
	}
	check := func(gs *ast.GoStmt) {
		lit, ok := gs.Call.Fun.(*ast.FuncLit)
		if !ok || len(loops) == 0 {
			return
		}
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return true
			}
			obj := pass.Info.Uses[id]
			if obj == nil {
				return true
			}
			for _, frame := range loops {
				if name, ok := frame.vars[obj]; ok {
					pass.Reportf(id.Pos(), "goroutine closure captures loop variable %s; pass it as an argument, as the worker pools do", name)
					return true
				}
			}
			return true
		})
	}
	visit = func(n ast.Node) {
		switch x := n.(type) {
		case *ast.RangeStmt, *ast.ForStmt:
			loops = append(loops, loopFrame{node: n, vars: collectVars(n)})
			ast.Inspect(loopBody(n), func(m ast.Node) bool {
				switch y := m.(type) {
				case *ast.GoStmt:
					check(y)
				case *ast.RangeStmt, *ast.ForStmt:
					if m != x {
						visit(m)
						return false
					}
				}
				return true
			})
			loops = loops[:len(loops)-1]
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.RangeStmt, *ast.ForStmt:
			visit(n)
			return false
		}
		return true
	})
}

// loopBody returns the body block of a for or range statement.
func loopBody(n ast.Node) *ast.BlockStmt {
	switch x := n.(type) {
	case *ast.RangeStmt:
		return x.Body
	case *ast.ForStmt:
		return x.Body
	}
	return nil
}
