package main

import (
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// readGolden loads a testdata/cli golden: the standalone command it was
// taken from ("$ tool args..."; arguments holding spaces or brackets are
// single-quoted), that command's exit status ("exit N"), then its stdout
// byte for byte.
func readGolden(t *testing.T, path string) (tool string, args []string, code int, stdout string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cmdline, rest, _ := strings.Cut(string(data), "\n")
	status, stdout, _ := strings.Cut(rest, "\n")
	code, err = strconv.Atoi(strings.TrimPrefix(status, "exit "))
	if !strings.HasPrefix(cmdline, "$ ") || !strings.HasPrefix(status, "exit ") || err != nil {
		t.Fatalf("%s: malformed golden header %q / %q", path, cmdline, status)
	}
	for i, f := range strings.Split(cmdline[2:], "'") {
		if i%2 == 1 {
			args = append(args, f)
			continue
		}
		args = append(args, strings.Fields(f)...)
	}
	for i, a := range args {
		if strings.HasPrefix(a, "testdata/") {
			args[i] = "../../" + a
		}
	}
	return args[0], args[1:], code, stdout
}

// verifyArgs spells a folded tool's command line as an ebda-verify mode:
// ebda-graph's commands follow "graph", ebda-deadlock's flags follow
// "deadlock" with its boolean -torus folded into -torus SIZES.
func verifyArgs(t *testing.T, tool string, args []string) []string {
	switch tool {
	case "ebda-verify":
		return args
	case "ebda-graph":
		return append([]string{"graph"}, args...)
	case "ebda-deadlock":
		torus := slices.Contains(args, "-torus")
		out := []string{"deadlock"}
		for _, a := range args {
			switch {
			case a == "-torus":
			case a == "-mesh" && torus:
				out = append(out, "-torus")
			default:
				out = append(out, a)
			}
		}
		return out
	}
	t.Fatalf("no ebda-verify spelling for %s", tool)
	return nil
}

// TestCLIGoldens replays every graph, deadlock and verify golden, taken
// from the standalone binaries before ebda-graph and ebda-deadlock became
// modes, and requires the same stdout and exit status.
func TestCLIGoldens(t *testing.T) {
	paths, err := filepath.Glob("../../testdata/cli/*.golden")
	if err != nil {
		t.Fatal(err)
	}
	seen := 0
	for _, path := range paths {
		tool, args, code, want := readGolden(t, path)
		if tool == "ebda-tables" || tool == "ebda-figures" {
			continue // ebda-repro's goldens
		}
		seen++
		args = verifyArgs(t, tool, args)
		gotCode, got, errb := runCLI(t, args...)
		if gotCode != code || got != want {
			t.Errorf("%s: ebda-verify %q: exit %d (stderr %q), want %d\n got %q\nwant %q",
				filepath.Base(path), args, gotCode, errb, code, got, want)
		}
	}
	if seen < 32 {
		t.Fatalf("replayed %d goldens, want at least 32", seen)
	}
}
