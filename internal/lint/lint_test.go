package lint

import (
	"strings"
	"testing"
)

func TestDetlintGolden(t *testing.T)    { RunGolden(t, "detlint", Detlint) }
func TestLocklintGolden(t *testing.T)   { RunGolden(t, "locklint", Locklint) }
func TestHotpathGolden(t *testing.T)    { RunGolden(t, "hotpath", Hotpath) }
func TestVerifygateGolden(t *testing.T) { RunGolden(t, "verifygate", Verifygate) }

// Deadlint goldens: the lock/wait graph cases. Each package is its own
// universe (they import only sync), so the graphs stay independent.
func TestDeadlintCleanGolden(t *testing.T)     { RunGolden(t, "deadlint/clean", Deadlint) }
func TestDeadlintCyclicGolden(t *testing.T)    { RunGolden(t, "deadlint/cyclic", Deadlint) }
func TestDeadlintRWMutexGolden(t *testing.T)   { RunGolden(t, "deadlint/rwmutex", Deadlint) }
func TestDeadlintChanWaitGolden(t *testing.T)  { RunGolden(t, "deadlint/chanwait", Deadlint) }
func TestDeadlintAllowGolden(t *testing.T)     { RunGolden(t, "deadlint/allow", Deadlint) }
func TestDeadlintInterprocGolden(t *testing.T) { RunGolden(t, "deadlint/interproc", Deadlint) }

// Ctxlint goldens: the /serve-suffixed package carries the serving
// contract; the plain package pins that non-serving code is exempt.
func TestCtxlintServeGolden(t *testing.T) { RunGolden(t, "ctxlint/serve", Ctxlint) }
func TestCtxlintPlainGolden(t *testing.T) { RunGolden(t, "ctxlint/plain", Ctxlint) }

// TestVerifygateServeGolden exercises the stricter serving-layer contract:
// the golden package's import path ends in "/serve", so the uncached
// entry points and Workspace verify methods are banned too.
func TestVerifygateServeGolden(t *testing.T) { RunGolden(t, "verifygate/serve", Verifygate) }

// TestVerifygateClusterGolden pins the same serving contract to the
// shard router: a "/cluster" import path forwards served verdicts, so
// the uncached entry points and hand-built Reports are banned there too.
func TestVerifygateClusterGolden(t *testing.T) { RunGolden(t, "verifygate/cluster", Verifygate) }

// TestVerifygateObshttpGolden exercises the observability-layer contract:
// an "/obshttp" import path marks debug/metrics handlers, which read
// published state and may never drive the verify engine — every cdg
// Verify* call is flagged there, cached or not.
func TestVerifygateObshttpGolden(t *testing.T) { RunGolden(t, "verifygate/obshttp", Verifygate) }

// TestSuiteCleanOnEngine runs the full suite over the packages that carry
// the invariants it guards — the engine itself must lint clean, so a
// regression in cdg/core/routing fails here as well as in make lint.
func TestSuiteCleanOnEngine(t *testing.T) {
	for _, rel := range []string{"internal/cdg", "internal/core", "internal/routing", "internal/serve", "internal/cluster", "internal/obs", "internal/obs/trace", "internal/obs/obshttp"} {
		pkg := loadRepoPackage(t, rel)
		diags, err := Run(pkg, All())
		if err != nil {
			t.Fatalf("%s: %v", rel, err)
		}
		for _, d := range diags {
			t.Errorf("%s: unexpected finding: %s", rel, d)
		}
	}
}

// TestHotpathAnnotationsPresent pins the contract that the PR-2 fast path
// stays annotated: losing a directive silently un-guards the function.
func TestHotpathAnnotationsPresent(t *testing.T) {
	want := map[string][]string{
		"internal/cdg":  {"VerifyTurnSet", "kahnPeel", "AddEdges", "AddTurnEdges", "buildSigTable", "mergeSorted", "insertSorted"},
		"internal/core": {"Matrix"},
	}
	for rel, names := range want {
		pkg := loadRepoPackage(t, rel)
		annotated := map[string]bool{}
		for _, f := range pkg.Files {
			for _, fd := range funcBodies(f) {
				if hasDirective(fd.Doc, "hotpath") {
					annotated[fd.Name.Name] = true
				}
			}
		}
		for _, name := range names {
			if !annotated[name] {
				t.Errorf("%s: function %s has lost its //ebda:hotpath directive", rel, name)
			}
		}
	}
}

// TestExpandSkipsTestdata checks the pattern walker ignores golden
// directories, hidden directories and underscore directories.
func TestExpandSkipsTestdata(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	dirs, err := Expand(l.ModRoot(), []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) == 0 {
		t.Fatal("Expand found no packages")
	}
	foundLint := false
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("Expand included testdata directory %s", d)
		}
		if strings.HasSuffix(d, "internal/lint") {
			foundLint = true
		}
	}
	if !foundLint {
		t.Error("Expand missed internal/lint")
	}
}

// TestAllowSuppression checks the //ebda:allow plumbing end to end on the
// golden files, which contain deliberately suppressed violations: running
// with suppressions honoured must not report the allowed lines (the
// golden tests already assert this), and the scanner must have found the
// directives at all.
func TestAllowSuppression(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := l.Load("testdata/detlint")
	if err != nil {
		t.Fatal(err)
	}
	allow := allowedLines(pkg)
	total := 0
	for _, lines := range allow {
		total += len(lines)
	}
	if total == 0 {
		t.Fatal("no //ebda:allow directives found in testdata/detlint; suppression plumbing is broken")
	}
}
