package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestTableFigureGoldens replays the goldens taken from the standalone
// ebda-tables and ebda-figures binaries before they became ebda-repro's
// -table and -fig: every table and figure, alone and all together, must
// print the same bytes with the same exit status.
func TestTableFigureGoldens(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/cli/*.golden")
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cmdline, rest, _ := strings.Cut(string(data), "\n")
		status, want, _ := strings.Cut(rest, "\n")
		old := strings.Fields(strings.TrimPrefix(cmdline, "$ "))
		var args []string
		switch {
		case old[0] == "ebda-tables" && len(old) == 1:
			args = []string{"-table", "all"}
		case old[0] == "ebda-figures" && len(old) == 1:
			args = []string{"-fig", "all"}
		case old[0] == "ebda-tables" || old[0] == "ebda-figures":
			args = old[1:] // -table N, -fig N
		default:
			continue // ebda-verify's goldens
		}
		seen++
		code, err := strconv.Atoi(strings.TrimPrefix(status, "exit "))
		if err != nil {
			t.Fatalf("%s: malformed status line %q", path, status)
		}
		gotCode, got, errb := runCLI(t, args...)
		if gotCode != code || got != want {
			t.Errorf("%s: ebda-repro %q: exit %d (stderr %q), want %d\n got %q\nwant %q",
				filepath.Base(path), args, gotCode, errb, code, got, want)
		}
	}
	if want := 2 + len(allTables) + len(allFigs); seen != want {
		t.Fatalf("replayed %d table and figure goldens, want %d", seen, want)
	}
}

// TestExperimentRun drives the harness through run: one quick experiment
// in the text, Markdown and JSON layouts.
func TestExperimentRun(t *testing.T) {
	code, out, errb := runCLI(t, "-quick", "-only", "e01", "-cachestats")
	if code != 0 || !strings.HasPrefix(out, "[E01] Figure 3: three-channel partition turns") ||
		!strings.Contains(out, "\n1 experiments, 0 mismatches\nverify cache (this run):\n") {
		t.Fatalf("exit %d (stderr %q):\n%s", code, errb, out)
	}
	code, out, _ = runCLI(t, "-quick", "-only", "E01", "-markdown")
	if code != 0 || !strings.HasPrefix(out, "| ID | Artifact | Paper claim | Measured | Match |\n|---|---|---|---|---|\n| E01 | ") {
		t.Fatalf("markdown: exit %d:\n%s", code, out)
	}
	code, out, _ = runCLI(t, "-quick", "-only", "E01", "-json")
	if code != 0 || !strings.HasPrefix(out, "[\n  {\n    \"ID\": \"E01\",") {
		t.Fatalf("json: exit %d:\n%s", code, out)
	}
}

// TestUsageErrorsExit2 covers the inputs that stop before any work, with
// nothing on stdout.
func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-only", "E99"},
		{"-table", "0"},
		{"-table", "6"},
		{"-fig", "11"},
		{"-fig", "x"},
		{"-bogus"},
	} {
		if code, out, errb := runCLI(t, args...); code != 2 || out != "" || errb == "" {
			t.Errorf("%v: exit %d stdout %q stderr %q, want exit 2 with a message", args, code, out, errb)
		}
	}
}
