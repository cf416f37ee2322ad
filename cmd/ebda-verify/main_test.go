package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ebda/internal/obs"
)

// asCommand makes the test binary run the command instead of the tests,
// for checks that need a fresh process.
const asCommand = "EBDA_VERIFY_TEST_AS_COMMAND"

func TestMain(m *testing.M) {
	if os.Getenv(asCommand) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

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

// TestObsJSONDeterministic holds the -obs-json contract: two fresh
// processes running the same serial verification write dumps that parse,
// carry the engine series, and are byte-identical once timing fields are
// canonicalised. Each run re-executes this test binary as the command.
func TestObsJSONDeterministic(t *testing.T) {
	dir := t.TempDir()
	var canon [2]bytes.Buffer
	for i := range canon {
		dump := filepath.Join(dir, fmt.Sprintf("run%d.json", i+1))
		cmd := exec.Command(os.Args[0], "-turns", "X+>Y+,X+>Y-,X->Y+,X->Y-", "-mesh", "8x8", "-obs-json", dump)
		cmd.Env = append(os.Environ(), asCommand+"=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("run %d: %v\n%s", i+1, err, out)
		}
		data, err := os.ReadFile(dump)
		if err != nil {
			t.Fatal(err)
		}
		s, err := obs.ParseSnapshot(data)
		if err != nil {
			t.Fatalf("run %d: %v", i+1, err)
		}
		for _, name := range []string{
			"ebda_verify_cache_hits_total",
			"ebda_verify_cache_misses_total",
			"ebda_cdg_verifies_total",
			"ebda_cdg_quotient_answers_total",
			"ebda_cdg_kahn_rounds_total",
			"ebda_workspace_pool_gets_total",
			"ebda_workspace_pool_puts_total",
		} {
			if !slices.ContainsFunc(s.Counters, func(c obs.CounterVal) bool { return c.Name == name }) {
				t.Errorf("run %d: counter %s missing from the dump", i+1, name)
			}
		}
		if pv, ok := s.Phase("cdg.verify"); !ok || pv.Count != 1 {
			t.Errorf("run %d: phase cdg.verify = %+v, want exactly one span", i+1, pv)
		}
		if _, ok := s.Histogram(obs.Label("ebda_phase_duration_seconds", "phase", "cdg.verify")); !ok {
			t.Errorf("run %d: per-phase duration histogram missing from the dump", i+1)
		}
		// The design is XY routing on a mesh: its quotient answers, and no
		// concrete graph is built.
		if got := s.Counter("ebda_cdg_quotient_answers_total"); got != 1 {
			t.Errorf("run %d: ebda_cdg_quotient_answers_total = %d, want 1", i+1, got)
		}
		if got := s.Counter("ebda_cdg_verifies_total"); got != 0 {
			t.Errorf("run %d: ebda_cdg_verifies_total = %d, want 0 (concrete verifications)", i+1, got)
		}
		if got := s.Counter("ebda_verify_cache_misses_total"); got != 1 {
			t.Errorf("run %d: ebda_verify_cache_misses_total = %d, want 1 (fresh process)", i+1, got)
		}
		if err := s.Canonical().WriteJSON(&canon[i]); err != nil {
			t.Fatal(err)
		}
	}
	if a, b := canon[0].String(), canon[1].String(); a != b {
		t.Fatalf("canonical dumps differ between identical runs:\n--- run 1\n%s\n--- run 2\n%s", a, b)
	}
}
