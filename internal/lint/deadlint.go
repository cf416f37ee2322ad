package lint

// Deadlint applies the engine's own theory to the engine's own source: it
// extracts the interprocedural lock/wait-order graph of the analyzed
// package and its module-local imports (see lockgraph.go), reduces it to
// an abstract cdg.EdgeSet, and asks the cached verification engine for
// the acyclicity verdict — the same reduction the paper makes from
// routing-deadlock freedom to CDG acyclicity, and the same blessed-entry
// discipline verifygate imposes on every other verdict consumer.
//
// Two diagnostic families come out of one graph build:
//
//   - lock-order cycles: every edge of the engine's cycle witness whose
//     acquisition site lies in the analyzed package is reported there,
//     with the full ordered file:line chain attached, so a cross-package
//     cycle surfaces once per owning package and never twice.
//
//   - blocking waits under a held mutex: a channel send/receive, blocking
//     select or WaitGroup.Wait executed while a mutex is positionally
//     held. Even when the graph stays acyclic (the waking goroutine may
//     not need the lock today), the wait pins the lock for an unbounded
//     time and turns into a deadlock the moment the waker needs it.
//     sync.Cond.Wait is exempt: its contract requires the lock held, and
//     it releases it while waiting.
//
// Deliberate exceptions carry //ebda:allow deadlint with a reason.
var Deadlint = &Analyzer{
	Name: "deadlint",
	Doc:  "verifies the package's interprocedural lock/wait graph deadlock-free through the cdg engine",
	Run:  runDeadlint,
}

func runDeadlint(pass *Pass) error {
	if pass.pkg == nil {
		return nil
	}
	lg := BuildLockGraph(pass.pkg)
	rep := lg.Verify()
	if !rep.OK {
		witness := lg.RenderCycle(rep.Cycle)
		for i := range rep.Cycle {
			from := rep.Cycle[i]
			to := rep.Cycle[(i+1)%len(rep.Cycle)]
			e, ok := lg.edgeBetween(from, to)
			if !ok || e.PkgPath != pass.PkgPath {
				continue
			}
			pass.Reportf(e.pos, "lock-order cycle: holds %s while %s %s; full cycle: %s",
				lg.Nodes[from].Key, viaVerb(e.Via), lg.Nodes[to].Key, witness)
		}
	}
	for _, h := range lg.hazards {
		if h.pkgPath != pass.PkgPath {
			continue
		}
		pass.Reportf(h.pos, "blocking %s on %s while holding %s; the wait pins the lock for unbounded time and deadlocks if the waker ever needs it",
			h.op, h.waitKey, h.heldKey)
	}
	return nil
}
