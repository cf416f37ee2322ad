package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestVerdictLines pins the verdict output and exit status of an acyclic
// chain design and a cyclic turn list on an 8x8 mesh.
func TestVerdictLines(t *testing.T) {
	cases := []struct {
		args []string
		code int
		want []string
	}{
		{
			[]string{"-chain", "PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]", "-mesh", "8x8"}, 0,
			[]string{
				"chain: PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]",
				"turn set: 12 90-degree, 5 U, 2 I",
				"8x8 mesh: 336 channels, 1252 dependencies: ACYCLIC (deadlock-free)",
				"connectivity: connected (4032 pairs)",
			},
		},
		{
			[]string{"-turns", "X+>Y+,Y+>X-,X->Y-,Y->X+", "-mesh", "8x8"}, 1,
			[]string{
				"turn set: 4 90-degree, 0 U, 0 I",
				"8x8 mesh: 224 channels, 388 dependencies: CYCLIC: " +
					"n0->n1 X1+ => n1->n2 X1+ => n2->n3 X1+ => n3->n4 X1+ => " +
					"n4->n5 X1+ => n5->n6 X1+ => n6->n7 X1+ => n7->n15 Y1+ => " +
					"n15->n14 X1- => n14->n13 X1- => n13->n12 X1- => n12->n11 X1- => " +
					"n11->n10 X1- => n10->n9 X1- => n9->n8 X1- => n8->n0 Y1- => (repeat)",
				"connectivity: connected (4032 pairs)",
			},
		},
	}
	for _, tc := range cases {
		code, out, errb := runCLI(t, tc.args...)
		if code != tc.code {
			t.Fatalf("%v: exit %d (stderr %q), want %d", tc.args, code, errb, tc.code)
		}
		if got, want := out, strings.Join(tc.want, "\n")+"\n"; got != want {
			t.Fatalf("%v:\n got %q\nwant %q", tc.args, got, want)
		}
	}
}

// TestUsageErrorsExit2 covers the input errors that stop before any
// verification.
func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-mesh", "8x8"},
		{"-chain", "PA[X+ X- Y-] -> PB[Y+]", "-turns", "X+>Y+"},
		{"-chain", "PA[X+] -> ", "-mesh", "8x8"},
		{"-mesh", "8x1"},
		{"-jobs", "1"},
	} {
		if code, _, errb := runCLI(t, args...); code != 2 || errb == "" {
			t.Errorf("%v: exit %d stderr %q, want exit 2 with a message", args, code, errb)
		}
	}
}

// TestWitness pins -witness: an acyclic design prints one numbered line
// per channel, the same bytes on every run, and a cyclic turn list
// prints no witness.
func TestWitness(t *testing.T) {
	args := []string{"-chain", "PA[X+ X- Y-] -> PB[Y+]", "-mesh", "3x3", "-witness"}
	code, out, errb := runCLI(t, args...)
	if code != 0 {
		t.Fatalf("exit %d (stderr %q), want 0", code, errb)
	}
	if !strings.Contains(out, "3x3 mesh: 24 channels") {
		t.Fatalf("unexpected verdict:\n%s", out)
	}
	_, rest, ok := strings.Cut(out, "deadlock-freedom witness (ascending channel numbering):\n")
	if !ok {
		t.Fatalf("no witness header:\n%s", out)
	}
	lines := strings.Split(rest, "\n")
	for i := 0; i < 24; i++ {
		if want := fmt.Sprintf("  %4d: n", i+1); !strings.HasPrefix(lines[i], want) {
			t.Fatalf("witness line %d = %q, want prefix %q", i+1, lines[i], want)
		}
	}
	if !strings.HasPrefix(lines[24], "connectivity: ") {
		t.Fatalf("witness has more than 24 lines: %q", lines[24])
	}
	if _, again, _ := runCLI(t, args...); again != out {
		t.Fatalf("rerun differs:\n%s\nvs\n%s", out, again)
	}
	code, out, _ = runCLI(t, "-turns", "X+>Y+,Y+>X-,X->Y-,Y->X+", "-mesh", "3x3", "-witness")
	if code != 1 || !strings.Contains(out, "\nno witness: cdg: graph is cyclic (8 of 24 channels ordered)\n") {
		t.Fatalf("cyclic design: exit %d, output:\n%s", code, out)
	}
}
