package main

import (
	"bytes"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestDesignSpaces pins the four-channel 2D design space (capped at two
// options) and the minimum-channel fully adaptive 2D design.
func TestDesignSpaces(t *testing.T) {
	code, out, errb := runCLI(t, "-vcs", "1,1", "-max", "2")
	want := `channel budget: [1 1] VCs per dimension (4 channels), verifying on 5x5 mesh

Algorithm 1/2 options (2):
  PA[X+ X- Y+] -> PB[Y-]                               ACYCLIC   adaptiveness 0.5924
  PA[X+ X- Y-] -> PB[Y+]                               ACYCLIC   adaptiveness 0.5924

exceptional-case options (4):
  PA[X+ Y+] -> PB[X- Y-]                               ACYCLIC   adaptiveness 0.5924
  PA[X- Y+] -> PB[X+ Y-]                               ACYCLIC   adaptiveness 0.5924
`
	if code != 0 || out != want {
		t.Fatalf("-vcs 1,1: exit %d (stderr %q):\n%s", code, errb, out)
	}
	code, out, errb = runCLI(t, "-n", "2")
	want = `minimum-channel fully adaptive design for n=2 (6 channels, formula 6):
  PA[X1+ Y1+ Y1-]
  PB[X1- Y2+ Y2-]
  VCs per dimension: [1 2]
  PA[X+ Y+ Y-] -> PB[X- Y2+ Y2-]                       ACYCLIC   adaptiveness 1.0000 (fully adaptive)
    turns: 12 90-degree, 5 U, 2 I; 5x5 mesh: 120 channels, 412 dependencies: ACYCLIC (deadlock-free)
`
	if code != 0 || out != want {
		t.Fatalf("-n 2: exit %d (stderr %q):\n%s", code, errb, out)
	}
	code, out, _ = runCLI(t, "-cost")
	if code != 0 || !strings.Contains(out, "routing-unit comparators (synthesized, Section 5.4):\n  xy               16\n") {
		t.Fatalf("-cost: exit %d:\n%s", code, out)
	}
}

// TestUsageErrorsExit2 covers the inputs that stop before any design
// prints.
func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-vcs", "1,0"},
		{"-vcs", "1,1", "-mesh", "5x"},
		{"-n", "2", "-mesh", "1x5"},
		{"-bogus"},
	} {
		if code, out, errb := runCLI(t, args...); code != 2 || out != "" || errb == "" {
			t.Errorf("%v: exit %d stdout %q stderr %q, want exit 2 with a message", args, code, out, errb)
		}
	}
}
