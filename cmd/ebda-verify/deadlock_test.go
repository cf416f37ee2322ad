package main

import (
	"strings"
	"testing"

	"ebda/internal/algs"
)

// TestDeadlockVerdicts pins the three verdicts on a 4x4 mesh: XY is acyclic,
// Duato's fully adaptive algorithm is cyclic but escape-protected, and
// unrestricted minimal routing is deadlock-capable. Each output is the
// same on a rerun.
func TestDeadlockVerdicts(t *testing.T) {
	cases := []struct {
		alg  string
		code int
		want []string
	}{
		{"xy", 0, []string{
			"design: xy\n",
			"4x4 mesh / xy: 48 channels, 68 dependencies: ACYCLIC (deadlock-free)\n",
			"no deadlock configuration (deadlock-free)\n",
			"verdict: deadlock-free by Dally's condition (acyclic dependency graph)\n",
		}},
		{"duato", 0, []string{
			"design: duato-fa\n",
			"4x4 mesh / duato-fa: 96 channels, 344 dependencies: CYCLIC: ",
			"no deadlock configuration (deadlock-free)\n",
			"escape-protected in Duato's sense (every circular wait has an exit)\n",
		}},
		{"unrestricted", 1, []string{
			"design: unrestricted\n",
			"4x4 mesh / unrestricted: 48 channels, 104 dependencies: CYCLIC: ",
			"deadlock configuration with 48 occupied channels:\n",
			"verdict: DEADLOCK-CAPABLE (concrete configuration above)\n",
		}},
	}
	for _, tc := range cases {
		args := []string{"deadlock", "-alg", tc.alg, "-mesh", "4x4"}
		code, out, errb := runCLI(t, args...)
		if code != tc.code || errb != "" {
			t.Fatalf("%v: exit %d (stderr %q), want %d", args, code, errb, tc.code)
		}
		for _, want := range tc.want {
			if !strings.Contains(out, want) {
				t.Errorf("%v: output missing %q:\n%s", args, want, out)
			}
		}
		if _, again, _ := runCLI(t, args...); again != out {
			t.Errorf("%v: rerun differs:\n%s\nvs\n%s", args, out, again)
		}
	}
}

// TestDeadlockUsageErrorsExit2 covers the input errors that stop before any
// analysis.
func TestDeadlockUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"deadlock", "-mesh", "4x4"},
		{"deadlock", "-alg", "xy", "-chain", "PA[X+ X- Y-] -> PB[Y+]"},
		{"deadlock", "-alg", "nope"},
		{"deadlock", "-alg", "dateline", "-mesh", "4x4"},
		{"deadlock", "-alg", "xy", "-mesh", "1x4"},
		{"deadlock", "-alg", "xy", "-mesh", "4x4", "-torus", "4x4"},
		{"deadlock", "-alg", "xy", "-torus"},
		{"deadlock", "-jobs", "1"},
		{"deadlock", "-alg", "xy", "extra"},
	} {
		if code, out, errb := runCLI(t, args...); code != 2 || errb == "" || out != "" {
			t.Errorf("%v: exit %d stdout %q stderr %q, want exit 2 with a message", args, code, out, errb)
		}
	}
}

// TestDeadlockEveryAlgorithmName runs the deadlock mode once per name of
// the shared algorithm table, aliases included: each is known and gets a
// verdict. Dateline routes only over wraparound links, so it runs on a
// torus (on a mesh it is a usage error, pinned by a testdata/cli golden).
func TestDeadlockEveryAlgorithmName(t *testing.T) {
	for _, name := range algs.Names() {
		network := "-mesh"
		if name == "dateline" {
			network = "-torus"
		}
		code, out, errb := runCLI(t, "deadlock", "-alg", name, network, "4x4")
		if (code != 0 && code != 1) || errb != "" || !strings.HasPrefix(out, "design: ") || !strings.Contains(out, "verdict: ") {
			t.Errorf("-alg %s: exit %d (stderr %q):\n%s", name, code, errb, out)
		}
	}
}
