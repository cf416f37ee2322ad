package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"sort"
	"strings"

	"ebda/internal/cdg"
)

// This file builds the repository's own channel dependency graph: nodes
// are lock objects (sync.Mutex/RWMutex fields and package-level mutexes)
// and blocking-wait targets (channels, WaitGroups, Conds); an edge A -> B
// records "some function holds A while acquiring or waiting on B". The
// construction is interprocedural: a call made under a lock contributes
// edges to everything the callee may transitively acquire, discovered by
// a summary fixpoint over the call graph of the package universe (the
// analyzed packages plus their module-local imports, all reachable
// through the Loader). Deadlock freedom of the concurrent serving stack
// then reduces — exactly as the paper reduces routing deadlock — to
// acyclicity of this graph, and the verdict comes from the same engine:
// cdg.VerifyModeCached in cdg.ModeLoop.
//
// The analysis is deliberately flow-insensitive in the locklint style: a
// lock is "held" at a point if a Lock/RLock on it precedes the point
// positionally in the same function body with no non-deferred
// Unlock/RUnlock in between (deferred unlocks release at return, so they
// never end a hold early). Function literals are separate scopes — a
// goroutine body neither inherits the spawner's held set nor leaks its
// acquisitions into the spawner's summary (goroutine acquisitions still
// produce their own edges). Known approximations, each on the
// false-negative side or covered by //ebda:allow: calls through function
// values and interfaces are not tracked, deferred calls are not tracked,
// and two distinct instances of one struct type share a node (their
// cross-instance hand-over-hand edges are suppressed; same-instance
// re-acquisition is kept, because that is the classic Go self-deadlock).

// Lock-node kinds.
const (
	nodeMutex     = "mutex"
	nodeRWMutex   = "rwmutex"
	nodeChan      = "chan"
	nodeWaitGroup = "waitgroup"
	nodeCond      = "cond"
)

// LockNode is one vertex of the lock/wait graph.
type LockNode struct {
	// Key canonically names the node, e.g.
	// "ebda/internal/cdg.Cache.mu" or "chan ebda/internal/serve.flightCall.done".
	Key string
	// Kind is one of mutex, rwmutex, chan, waitgroup, cond. Only mutex
	// and rwmutex nodes can be held, so only they have outgoing edges.
	Kind string
}

// LockEdge records that From is held at Site while To is acquired or
// waited on (possibly transitively, through the call named in Via).
type LockEdge struct {
	From, To int
	Site     token.Position
	pos      token.Pos
	// Via describes the step: "acquires", "waits-on", or
	// "calls pkg.f" for interprocedural edges.
	Via string
	// PkgPath is the package containing Site, so per-package analyzer
	// runs report each edge exactly once, in the package that owns it.
	PkgPath string
}

// lockHazard is a blocking wait executed under a held mutex — recorded
// for direct diagnostics independent of whether the graph is cyclic.
type lockHazard struct {
	pos      token.Pos
	pkgPath  string
	heldKey  string
	waitKey  string
	waitKind string
	op       string // "receive", "send", "select", "WaitGroup.Wait"
}

// LockGraph is the assembled lock/wait-order graph of a package universe.
type LockGraph struct {
	Nodes   []LockNode
	Edges   []LockEdge
	hazards []lockHazard
	modRoot string
}

// BuildLockGraph builds the interprocedural lock/wait graph of the given
// packages plus their transitive module-local imports. The result is
// deterministic: nodes and edges are discovered in (package path, file,
// position) order and edges are deduplicated keeping the first site.
func BuildLockGraph(pkgs ...*Package) *LockGraph {
	b := &lockGraphBuilder{
		nodeByObj: map[types.Object]int{},
		nodeByKey: map[string]int{},
		scopeByFn: map[*types.Func]*lockScope{},
		edgeSeen:  map[[2]int]bool{},
	}
	if len(pkgs) > 0 && pkgs[0].loader != nil {
		b.modRoot = pkgs[0].loader.modRoot
	}
	for _, pkg := range lockUniverse(pkgs) {
		b.scanPackage(pkg)
	}
	b.fixpoint()
	for _, sc := range b.scopes {
		b.emitEdges(sc)
	}
	return &LockGraph{Nodes: b.nodes, Edges: b.edges, hazards: b.hazards, modRoot: b.modRoot}
}

// EdgeSet reduces the graph to the engine's abstract form.
func (lg *LockGraph) EdgeSet() *cdg.EdgeSet {
	es := cdg.NewEdgeSet(len(lg.Nodes))
	for _, e := range lg.Edges {
		es.AddEdge(e.From, e.To)
	}
	return es
}

// Verify obtains the acyclicity verdict from the cached engine — the same
// discipline verifygate enforces on every other verdict consumer.
func (lg *LockGraph) Verify() cdg.ModeReport {
	return cdg.VerifyModeCached(lg.EdgeSet(), cdg.ModeLoop, nil, nil, nil)
}

// edgeBetween returns the recorded edge from -> to, if any.
func (lg *LockGraph) edgeBetween(from, to int) (LockEdge, bool) {
	for _, e := range lg.Edges {
		if e.From == from && e.To == to {
			return e, true
		}
	}
	return LockEdge{}, false
}

// RenderCycle renders an engine cycle witness (node indices in dependency
// order) back into an ordered chain of source acquisition sites:
// "file:line: holds A while acquiring B" steps joined with "; ".
func (lg *LockGraph) RenderCycle(cycle []int) string {
	if len(cycle) == 0 {
		return "<acyclic>"
	}
	steps := make([]string, 0, len(cycle))
	for i := range cycle {
		from := cycle[i]
		to := cycle[(i+1)%len(cycle)]
		e, ok := lg.edgeBetween(from, to)
		if !ok {
			continue
		}
		steps = append(steps, fmt.Sprintf("%s: holds %s while %s %s",
			lg.shortPos(e.Site), lg.Nodes[from].Key, viaVerb(e.Via), lg.Nodes[to].Key))
	}
	return strings.Join(steps, "; ")
}

// shortPos renders a site as "file:line" with the module root trimmed.
func (lg *LockGraph) shortPos(p token.Position) string {
	name := p.Filename
	if lg.modRoot != "" {
		if rel, err := filepath.Rel(lg.modRoot, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = filepath.ToSlash(rel)
		}
	}
	return fmt.Sprintf("%s:%d", name, p.Line)
}

// viaVerb renders an edge's Via as a verb phrase for the witness chain.
func viaVerb(via string) string {
	switch via {
	case "acquires":
		return "acquiring"
	case "waits-on":
		return "waiting on"
	default: // "calls pkg.f"
		return via + ", which acquires"
	}
}

// lockUniverse expands packages to their transitive module-local import
// closure in deterministic order (breadth-first, import paths sorted).
func lockUniverse(roots []*Package) []*Package {
	var out []*Package
	seen := map[string]bool{}
	queue := append([]*Package(nil), roots...)
	for _, p := range queue {
		seen[p.Path] = true
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		out = append(out, p)
		if p.loader == nil {
			continue
		}
		var paths []string
		for _, imp := range p.Types.Imports() {
			path := imp.Path()
			if (path == p.loader.modPath || strings.HasPrefix(path, p.loader.modPath+"/")) && !seen[path] {
				seen[path] = true
				paths = append(paths, path)
			}
		}
		sort.Strings(paths)
		for _, path := range paths {
			dep, err := p.loader.LoadPath(path)
			if err != nil {
				// The import type-checked when p loaded, so this cannot
				// fail in practice; skip defensively rather than abort.
				continue
			}
			queue = append(queue, dep)
		}
	}
	return out
}

// Event kinds of one function scope, in positional order.
const (
	evLock = iota
	evUnlock
	evWait
	evCall
)

type lockEvent struct {
	kind int
	pos  token.Pos
	// node is the lock/wait node (evLock/evUnlock/evWait).
	node int
	// inst is the receiver instance object for lock/unlock matching.
	inst types.Object
	// callee is the static callee (evCall).
	callee *types.Func
	// op describes a wait ("receive", "send", "select", ...).
	op string
}

// lockScope is one function body: a declared function or a function
// literal (literals run on their own goroutine or behind an unknown
// callback, so they neither inherit a held set nor feed a summary).
type lockScope struct {
	fn      *types.Func // nil for function literals
	name    string
	pkg     *Package
	events  []lockEvent
	summary map[int]bool
}

type lockGraphBuilder struct {
	modRoot   string
	nodes     []LockNode
	nodeByObj map[types.Object]int
	nodeByKey map[string]int
	scopes    []*lockScope
	scopeByFn map[*types.Func]*lockScope
	edges     []LockEdge
	edgeSeen  map[[2]int]bool
	hazards   []lockHazard
}

// scanPackage collects the event streams of every function body.
func (b *lockGraphBuilder) scanPackage(pkg *Package) {
	for _, f := range pkg.Files {
		for _, fd := range funcBodies(f) {
			name := fd.Name.Name
			if fd.Recv != nil && len(fd.Recv.List) > 0 {
				if rn := recvNamed(typeOfExpr(pkg, fd.Recv.List[0].Type)); rn != "" {
					name = rn + "." + name
				}
			}
			sc := &lockScope{pkg: pkg, name: pkg.Types.Name() + "." + name, summary: map[int]bool{}}
			if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
				sc.fn = obj
				b.scopeByFn[obj] = sc
			}
			b.scopes = append(b.scopes, sc)
			b.walkBody(sc, fd.Body)
		}
	}
}

// typeOfExpr resolves an expression's type against a package's Info.
func typeOfExpr(pkg *Package, e ast.Expr) types.Type {
	if t, ok := pkg.Info.Types[e]; ok {
		return t.Type
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := pkg.Info.ObjectOf(id); obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// walkBody records the scope's events, spinning nested function literals
// off into their own anonymous scopes.
func (b *lockGraphBuilder) walkBody(sc *lockScope, body *ast.BlockStmt) {
	var inspect func(n ast.Node) bool
	litScope := func(lit *ast.FuncLit) {
		sub := &lockScope{pkg: sc.pkg, name: sc.name + ".func", summary: map[int]bool{}}
		b.scopes = append(b.scopes, sub)
		b.walkBody(sub, lit.Body)
	}
	inspect = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			litScope(x)
			return false
		case *ast.DeferStmt:
			// Deferred calls run at return: a deferred Unlock must not
			// end the hold positionally, and deferred work is skipped
			// entirely (it executes with the at-return held set, which
			// flow-insensitive tracking cannot name). A deferred literal
			// still gets its own scope.
			if lit, ok := x.Call.Fun.(*ast.FuncLit); ok {
				litScope(lit)
			}
			return false
		case *ast.SelectStmt:
			b.selectEvents(sc, x, inspect)
			return false
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				b.waitEvent(sc, x.Pos(), x.X, "receive")
			}
		case *ast.SendStmt:
			b.waitEvent(sc, x.Arrow, x.Chan, "send")
		case *ast.CallExpr:
			if b.callEvent(sc, x) {
				return false
			}
		}
		return true
	}
	ast.Inspect(body, inspect)
}

// selectEvents handles a select statement: a default clause makes every
// arm non-blocking (no wait events); otherwise each communication is a
// wait. Clause bodies are walked in the enclosing scope either way, and
// the communicated channels are recorded here rather than re-visited, so
// a recv arm does not double-count.
func (b *lockGraphBuilder) selectEvents(sc *lockScope, sel *ast.SelectStmt, inspect func(ast.Node) bool) {
	blocking := true
	for _, cl := range sel.Body.List {
		if cc, ok := cl.(*ast.CommClause); ok && cc.Comm == nil {
			blocking = false
		}
	}
	for _, cl := range sel.Body.List {
		cc, ok := cl.(*ast.CommClause)
		if !ok {
			continue
		}
		if blocking && cc.Comm != nil {
			switch comm := cc.Comm.(type) {
			case *ast.SendStmt:
				b.waitEvent(sc, comm.Arrow, comm.Chan, "select")
			case *ast.ExprStmt:
				if u, ok := comm.X.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
					b.waitEvent(sc, u.Pos(), u.X, "select")
				}
			case *ast.AssignStmt:
				for _, rhs := range comm.Rhs {
					if u, ok := rhs.(*ast.UnaryExpr); ok && u.Op == token.ARROW {
						b.waitEvent(sc, u.Pos(), u.X, "select")
					}
				}
			}
		}
		for _, stmt := range cc.Body {
			ast.Inspect(stmt, inspect)
		}
	}
}

// callEvent classifies one call: a Lock/Unlock on a mutex, a blocking
// Wait, or a static call into the module universe. It reports whether the
// call was fully handled (so the walker skips the callee expression —
// arguments are still visited by the caller's Inspect when false).
func (b *lockGraphBuilder) callEvent(sc *lockScope, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if ok {
		recv := typeOfExpr(sc.pkg, sel.X)
		switch syncTypeName(recv) {
		case "sync.Mutex", "sync.RWMutex":
			kind := nodeMutex
			if syncTypeName(recv) == "sync.RWMutex" {
				kind = nodeRWMutex
			}
			switch sel.Sel.Name {
			case "Lock", "RLock", "TryLock", "TryRLock":
				node := b.lockNodeFor(sc, sel.X, kind)
				b.addEvent(sc, lockEvent{kind: evLock, pos: call.Pos(), node: node, inst: instanceObj(sc.pkg, sel.X)})
				return true
			case "Unlock", "RUnlock":
				node := b.lockNodeFor(sc, sel.X, kind)
				b.addEvent(sc, lockEvent{kind: evUnlock, pos: call.Pos(), node: node, inst: instanceObj(sc.pkg, sel.X)})
				return true
			}
		case "sync.WaitGroup":
			if sel.Sel.Name == "Wait" {
				node := b.lockNodeFor(sc, sel.X, nodeWaitGroup)
				b.addEvent(sc, lockEvent{kind: evWait, pos: call.Pos(), node: node, op: "WaitGroup.Wait"})
				return true
			}
		case "sync.Cond":
			if sel.Sel.Name == "Wait" {
				node := b.lockNodeFor(sc, sel.X, nodeCond)
				b.addEvent(sc, lockEvent{kind: evWait, pos: call.Pos(), node: node, op: "Cond.Wait"})
				return true
			}
		}
	}
	if fn, okf := calleeObject(sc.pkg.Info, call).(*types.Func); okf && fn.Pkg() != nil && sc.pkg.loader != nil {
		mod := sc.pkg.loader.modPath
		p := fn.Pkg().Path()
		if p == mod || strings.HasPrefix(p, mod+"/") {
			b.addEvent(sc, lockEvent{kind: evCall, pos: call.Pos(), node: -1, callee: fn})
		}
	}
	return false
}

// addEvent appends an event keeping the stream position-sorted (AST
// pre-order is already nearly positional; the insertion sort is a no-op
// in the common case).
func (b *lockGraphBuilder) addEvent(sc *lockScope, ev lockEvent) {
	sc.events = append(sc.events, ev)
	for i := len(sc.events) - 1; i > 0 && sc.events[i].pos < sc.events[i-1].pos; i-- {
		sc.events[i], sc.events[i-1] = sc.events[i-1], sc.events[i]
	}
}

// waitEvent records a blocking channel operation.
func (b *lockGraphBuilder) waitEvent(sc *lockScope, pos token.Pos, ch ast.Expr, op string) {
	node := b.chanNodeFor(sc, ch)
	b.addEvent(sc, lockEvent{kind: evWait, pos: pos, node: node, op: op})
}

// syncTypeName returns "sync.Mutex" etc for a (possibly pointer) sync
// type, or "".
func syncTypeName(t types.Type) string {
	if t == nil {
		return ""
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch t.String() {
	case "sync.Mutex", "sync.RWMutex", "sync.WaitGroup", "sync.Cond":
		return t.String()
	}
	return ""
}

// lockNodeFor resolves the identity node of a mutex/WaitGroup/Cond
// expression: a struct field (keyed by owner type), a package-level or
// local variable, or — when unresolvable — a per-type fallback node.
func (b *lockGraphBuilder) lockNodeFor(sc *lockScope, e ast.Expr, kind string) int {
	e = ast.Unparen(e)
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if selection, ok := sc.pkg.Info.Selections[sel]; ok && selection.Kind() == types.FieldVal {
			if field, ok := selection.Obj().(*types.Var); ok {
				owner := ""
				if rt := typeOfExpr(sc.pkg, sel.X); rt != nil {
					owner = namedPath(rt)
				}
				if owner == "" && field.Pkg() != nil {
					owner = field.Pkg().Path()
				}
				return b.node(field, owner+"."+field.Name(), kind)
			}
		}
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := sc.pkg.Info.ObjectOf(id); obj != nil {
			scope := sc.pkg.Path
			if obj.Parent() != nil && obj.Parent() != sc.pkg.Types.Scope() {
				scope = sc.name
			}
			return b.node(obj, scope+"."+obj.Name(), kind)
		}
	}
	return b.node(nil, kind+" "+exprKeyString(sc, e), kind)
}

// chanNodeFor resolves the node of a channel expression; unresolvable
// channels (call results such as ctx.Done()) share a per-type node,
// which is safe because wait nodes are sinks — nothing holds a channel.
func (b *lockGraphBuilder) chanNodeFor(sc *lockScope, e ast.Expr) int {
	e = ast.Unparen(e)
	if sel, ok := e.(*ast.SelectorExpr); ok {
		if selection, ok := sc.pkg.Info.Selections[sel]; ok && selection.Kind() == types.FieldVal {
			if field, ok := selection.Obj().(*types.Var); ok {
				owner := ""
				if rt := typeOfExpr(sc.pkg, sel.X); rt != nil {
					owner = namedPath(rt)
				}
				if owner == "" && field.Pkg() != nil {
					owner = field.Pkg().Path()
				}
				return b.node(field, "chan "+owner+"."+field.Name(), nodeChan)
			}
		}
	}
	if id, ok := e.(*ast.Ident); ok {
		if obj := sc.pkg.Info.ObjectOf(id); obj != nil {
			scope := sc.pkg.Path
			if obj.Parent() != nil && obj.Parent() != sc.pkg.Types.Scope() {
				scope = sc.name
			}
			return b.node(obj, "chan "+scope+"."+obj.Name(), nodeChan)
		}
	}
	return b.node(nil, "chan "+exprKeyString(sc, e), nodeChan)
}

// exprKeyString names an unresolvable lock/channel expression by its
// static type, a stable degenerate key.
func exprKeyString(sc *lockScope, e ast.Expr) string {
	if t := typeOfExpr(sc.pkg, e); t != nil {
		return t.String()
	}
	return "<unknown>"
}

// node interns a graph node by identity object (when non-nil) or key.
func (b *lockGraphBuilder) node(obj types.Object, key, kind string) int {
	if obj != nil {
		if id, ok := b.nodeByObj[obj]; ok {
			return id
		}
	}
	if id, ok := b.nodeByKey[key]; ok {
		if obj != nil {
			b.nodeByObj[obj] = id
		}
		return id
	}
	id := len(b.nodes)
	b.nodes = append(b.nodes, LockNode{Key: key, Kind: kind})
	b.nodeByKey[key] = id
	if obj != nil {
		b.nodeByObj[obj] = id
	}
	return id
}

// instanceObj resolves the receiver instance a mutex expression hangs off
// (the root identifier's object), for matching Lock to Unlock and for
// distinguishing same-instance re-acquisition from cross-instance
// ordering.
func instanceObj(pkg *Package, e ast.Expr) types.Object {
	if root := rootIdent(e); root != nil {
		return pkg.Info.ObjectOf(root)
	}
	return nil
}

// fixpoint propagates acquisition summaries over the call graph until
// stable: summary(f) = f's direct lock/wait nodes ∪ summaries of its
// static callees. Literals contribute nothing (they run asynchronously
// or behind unknown callbacks).
func (b *lockGraphBuilder) fixpoint() {
	for _, sc := range b.scopes {
		for _, ev := range sc.events {
			if ev.kind == evLock || ev.kind == evWait {
				sc.summary[ev.node] = true
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, sc := range b.scopes {
			for _, ev := range sc.events {
				if ev.kind != evCall {
					continue
				}
				callee, ok := b.scopeByFn[ev.callee]
				if !ok {
					continue
				}
				for node := range callee.summary {
					if !sc.summary[node] {
						sc.summary[node] = true
						changed = true
					}
				}
			}
		}
	}
}

// heldLock is one live acquisition during the positional sweep.
type heldLock struct {
	inst types.Object
	node int
}

// emitEdges sweeps one scope's events, maintaining the held set and
// recording graph edges and wait-under-lock hazards.
func (b *lockGraphBuilder) emitEdges(sc *lockScope) {
	var held []heldLock
	for _, ev := range sc.events {
		switch ev.kind {
		case evLock:
			for _, h := range held {
				if h.node == ev.node && (h.inst == nil || ev.inst == nil || h.inst != ev.inst) {
					// Cross-instance hand-over-hand on one type: order
					// unknowable statically, suppressed by design.
					continue
				}
				b.addEdge(sc, h.node, ev.node, ev.pos, "acquires")
			}
			held = append(held, heldLock{inst: ev.inst, node: ev.node})
		case evUnlock:
			for i := len(held) - 1; i >= 0; i-- {
				if held[i].node == ev.node && held[i].inst == ev.inst {
					held = append(held[:i], held[i+1:]...)
					break
				}
			}
		case evWait:
			for _, h := range held {
				b.addEdge(sc, h.node, ev.node, ev.pos, "waits-on")
				// Cond.Wait is exempt from the hazard diagnostic: the
				// contract requires its locker held, and it releases it
				// while waiting.
				if b.nodes[ev.node].Kind != nodeCond {
					b.hazards = append(b.hazards, lockHazard{
						pos: ev.pos, pkgPath: sc.pkg.Path,
						heldKey: b.nodes[h.node].Key, waitKey: b.nodes[ev.node].Key,
						waitKind: b.nodes[ev.node].Kind, op: ev.op,
					})
				}
			}
		case evCall:
			if len(held) == 0 {
				continue
			}
			callee, ok := b.scopeByFn[ev.callee]
			if !ok || len(callee.summary) == 0 {
				continue
			}
			targets := make([]int, 0, len(callee.summary))
			for node := range callee.summary {
				targets = append(targets, node)
			}
			sort.Ints(targets)
			via := "calls " + calleeDisplay(ev.callee)
			for _, h := range held {
				for _, t := range targets {
					b.addEdge(sc, h.node, t, ev.pos, via)
				}
			}
		}
	}
}

// calleeDisplay renders a callee as "pkg.Func" or "pkg.Type.Method".
func calleeDisplay(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if rn := recvNamed(sig.Recv().Type()); rn != "" {
			name = rn + "." + name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

// addEdge records one dependency edge, deduplicated on (from, to) with
// the first site kept (scope scan order is deterministic).
func (b *lockGraphBuilder) addEdge(sc *lockScope, from, to int, pos token.Pos, via string) {
	key := [2]int{from, to}
	if b.edgeSeen[key] {
		return
	}
	b.edgeSeen[key] = true
	b.edges = append(b.edges, LockEdge{
		From: from, To: to,
		Site: sc.pkg.Fset.Position(pos), pos: pos,
		Via: via, PkgPath: sc.pkg.Path,
	})
}
