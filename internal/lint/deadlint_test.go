package lint

import (
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestRepoLockGraphAcyclic is the reflexive acceptance test: the
// repository's own interprocedural lock/wait graph, extracted over every
// shipped package and verified through the cdg engine, is deadlock-free
// today. A refactor that introduces a lock-order cycle anywhere in the
// module fails here with the engine's witness chain rendered to
// file:line sites.
func TestRepoLockGraphAcyclic(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	dirs, err := Expand(l.ModRoot(), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	pkgs := make([]*Package, 0, len(dirs))
	for _, dir := range dirs {
		pkg, err := l.Load(dir)
		if err != nil {
			t.Fatalf("load %s: %v", dir, err)
		}
		pkgs = append(pkgs, pkg)
	}
	lg := BuildLockGraph(pkgs...)
	// Node extraction must see the module's synchronisation objects (the
	// caches' mutexes, the pools, the flight group, the worker
	// WaitGroups); zero nodes would mean extraction silently broke. Edges
	// are NOT required: as of this writing every lock region in the repo
	// is call-free and wait-free, so the graph is 34 nodes and 0 edges —
	// trivially acyclic, which is the strongest possible verdict.
	if len(lg.Nodes) == 0 {
		t.Fatal("repo lock graph has no nodes — extraction is broken")
	}
	for _, h := range lg.hazards {
		t.Errorf("blocking wait under a held lock at %s: waits on %s holding %s",
			lg.shortPos(pkgs[0].Fset.Position(h.pos)), h.waitKey, h.heldKey)
	}
	rep := lg.Verify()
	if !rep.OK {
		t.Fatalf("the repository's lock/wait graph has a cycle: %s", lg.RenderCycle(rep.Cycle))
	}
	// The engine's report and the graph must agree on scale.
	if rep.Nodes != len(lg.Nodes) || rep.Edges != len(lg.Edges) {
		t.Fatalf("report/graph mismatch: report %d/%d vs graph %d/%d",
			rep.Nodes, rep.Edges, len(lg.Nodes), len(lg.Edges))
	}
	t.Logf("repo lock graph: %d nodes, %d edges, acyclic", rep.Nodes, rep.Edges)
}

// TestDeadlintWitnessChain pins the shape of a rendered cycle witness on
// the AB/BA golden: an ordered chain of file:line acquisition sites where
// each step acquires exactly the node the next step holds.
func TestDeadlintWitnessChain(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := l.Load(filepath.Join("testdata", "deadlint", "cyclic"))
	if err != nil {
		t.Fatal(err)
	}
	lg := BuildLockGraph(pkg)
	rep := lg.Verify()
	if rep.OK {
		t.Fatal("cyclic golden verified acyclic")
	}
	if len(rep.Cycle) != 2 {
		t.Fatalf("AB/BA witness has %d nodes, want 2: %v", len(rep.Cycle), rep.Cycle)
	}
	witness := lg.RenderCycle(rep.Cycle)
	stepRe := regexp.MustCompile(`^internal/lint/testdata/deadlint/cyclic/cyclic\.go:\d+: holds (\S+) while acquiring (\S+)$`)
	steps := strings.Split(witness, "; ")
	if len(steps) != 2 {
		t.Fatalf("witness has %d steps, want 2: %q", len(steps), witness)
	}
	var held, acquired []string
	for _, step := range steps {
		m := stepRe.FindStringSubmatch(step)
		if m == nil {
			t.Fatalf("witness step %q does not match %q", step, stepRe)
		}
		held = append(held, m[1])
		acquired = append(acquired, m[2])
	}
	for i := range steps {
		if acquired[i] != held[(i+1)%len(steps)] {
			t.Fatalf("witness chain broken at step %d: acquires %s but next holds %s (%q)",
				i, acquired[i], held[(i+1)%len(steps)], witness)
		}
	}
	if held[0] == held[1] {
		t.Fatalf("witness names one lock twice: %q", witness)
	}
}

// TestRunDeterministicOrdering pins satellite-level determinism of the
// suite's output: two runs render byte-identically, and the diagnostic
// order is strictly sorted by (file, line, column, analyzer, message) —
// the message tiebreak matters because deadlint reports two hazards at
// one position in the chanwait golden.
func TestRunDeterministicOrdering(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := l.Load(filepath.Join("testdata", "deadlint", "chanwait"))
	if err != nil {
		t.Fatal(err)
	}
	render := func() string {
		diags, err := Run(pkg, All())
		if err != nil {
			t.Fatal(err)
		}
		var sb strings.Builder
		for _, d := range diags {
			sb.WriteString(d.String())
			sb.WriteByte('\n')
		}
		return sb.String()
	}
	first := render()
	for i := 0; i < 5; i++ {
		if got := render(); got != first {
			t.Fatalf("run %d diverged:\n%s\nvs\n%s", i+2, got, first)
		}
	}
	diags, err := Run(pkg, All())
	if err != nil {
		t.Fatal(err)
	}
	samePos := 0
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.Pos.Filename == b.Pos.Filename && a.Pos.Line == b.Pos.Line && a.Pos.Column == b.Pos.Column {
			samePos++
			if a.Analyzer > b.Analyzer || (a.Analyzer == b.Analyzer && a.Message >= b.Message) {
				t.Fatalf("same-position diagnostics out of order:\n%s\n%s", a, b)
			}
		}
	}
	if samePos == 0 {
		t.Fatal("chanwait golden no longer produces same-position diagnostics; the tiebreak is untested")
	}
}
