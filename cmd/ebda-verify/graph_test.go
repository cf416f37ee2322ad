package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const goldenDir = "../../testdata/graphio"

func TestGraphVerifyGoldenVerdicts(t *testing.T) {
	cases := []struct {
		args []string
		code int
		want string
	}{
		{[]string{"-mode=loop", goldenDir + "/xy3x3-out4.txt"}, 0, "loop: 18 channels, 17 edges: VERIFIED"},
		{[]string{"-mode=liveness", goldenDir + "/xy3x3-out4.txt"}, 0, "liveness: 18 channels, 17 edges: VERIFIED"},
		{[]string{"-mode=escape", "-escape", "10,11,12,13,14,15,16,17", goldenDir + "/xy3x3-out4.txt"}, 0, "escape: 18 channels, 17 edges: VERIFIED"},
		{[]string{"-mode=subrel", goldenDir + "/xy3x3-out4.txt"}, 0, "subrel: 18 channels, 17 edges: VERIFIED (subrelation: 17 edges)"},
		{[]string{"-mode=loop", goldenDir + "/cycle4.txt"}, 1, "loop: 5 channels, 4 edges: VIOLATED (cycle): n1 => n2 => n3 => (repeat)"},
		{[]string{"-mode=liveness", goldenDir + "/cycle4.txt"}, 1, "liveness: 5 channels, 4 edges: VIOLATED (cycle): n0 => n1 => [n1 => n2 => n3 => (repeat)]"},
		{[]string{"-mode=escape", "-escape", "2", goldenDir + "/cycle4.txt"}, 1, "escape: 5 channels, 4 edges: VIOLATED (escape-stranded): n2"},
		{[]string{"-mode=subrel", goldenDir + "/cycle4.txt"}, 1, "subrel: 5 channels, 4 edges: VIOLATED (no-subrelation): n0 => [n1 => n2 => n3 => (repeat)]"},
		{[]string{"-mode=escape", "-escape", "4", goldenDir + "/escape-ok.txt"}, 0, "escape: 6 channels, 7 edges: VERIFIED"},
		{[]string{"-mode=liveness", goldenDir + "/deadend.txt"}, 1, "liveness: 4 channels, 2 edges: VIOLATED (dead-end): n0 => n1 => n2"},
		{[]string{"-mode=liveness", goldenDir + "/escape-ok.json"}, 1, "liveness: 6 channels, 7 edges: VIOLATED (cycle): n0 => n2 => [n2 => n3 => (repeat)]"},
	}
	for _, tc := range cases {
		code, out, errb := runCLI(t, append([]string{"graph", "verify"}, tc.args...)...)
		if code != tc.code {
			t.Fatalf("%v: exit %d (stderr %q), want %d", tc.args, code, errb, tc.code)
		}
		if got := strings.TrimSuffix(out, "\n"); got != tc.want {
			t.Fatalf("%v:\n got %q\nwant %q", tc.args, got, tc.want)
		}
	}
}

func TestGraphImportSummary(t *testing.T) {
	code, out, _ := runCLI(t, "graph", "import", goldenDir+"/escape-ok.txt")
	if code != 0 || out != "6 channels, 7 edges, 2 inputs, 1 outputs\n" {
		t.Fatalf("exit %d out %q", code, out)
	}
}

func TestGraphImportParseErrorExit2(t *testing.T) {
	code, _, errb := runCLI(t, "graph", "import", goldenDir+"/does-not-exist.txt")
	if code != 2 || errb == "" {
		t.Fatalf("exit %d stderr %q", code, errb)
	}
}

func TestGraphVerifyUsageErrors(t *testing.T) {
	cases := [][]string{
		{"graph", "verify", "-mode=bogus", goldenDir + "/cycle4.txt"},
		{"graph", "verify", "-mode=escape", goldenDir + "/cycle4.txt"}, // missing -escape
		{"graph", "verify", "-mode=escape", "-escape", "x", goldenDir + "/cycle4.txt"},
		{"graph", "verify", "-mode=escape", "-escape", "99", goldenDir + "/cycle4.txt"},
		{"graph", "verify"},
		{"graph", "frobnicate"},
		{"graph"},
		{"frobnicate"},
	}
	for _, args := range cases {
		if code, _, _ := runCLI(t, args...); code != 2 {
			t.Fatalf("%v: exit %d, want 2", args, code)
		}
	}
}

func TestGraphExportJSONMatchesGolden(t *testing.T) {
	code, out, errb := runCLI(t, "graph", "export", "-json", goldenDir+"/escape-ok.txt")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb)
	}
	want := `{"channels":6,"inputs":[0,1],"outputs":[5],"edges":[[0,2],[1,3],[2,3],[2,4],[3,2],[3,4],[4,5]]}` + "\n"
	if out != want {
		t.Fatalf("export: %q", out)
	}
	// And back: the JSON golden exports to the canonical text form.
	code, out, _ = runCLI(t, "graph", "export", goldenDir+"/escape-ok.json")
	if code != 0 || !strings.HasPrefix(out, "6\n0 1\n5\n") {
		t.Fatalf("text export: exit %d %q", code, out)
	}
}

// TestGraphExportRoundTrip goes text -> JSON -> text through files and
// must reproduce the golden byte for byte.
func TestGraphExportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	asJSON, asText := filepath.Join(dir, "g.json"), filepath.Join(dir, "g.txt")
	if code, _, errb := runCLI(t, "graph", "export", "-json", "-o", asJSON, goldenDir+"/escape-ok.txt"); code != 0 {
		t.Fatalf("export -json: exit %d: %s", code, errb)
	}
	if code, _, errb := runCLI(t, "graph", "export", "-o", asText, asJSON); code != 0 {
		t.Fatalf("export: exit %d: %s", code, errb)
	}
	got, err := os.ReadFile(asText)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenDir + "/escape-ok.txt")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("round trip diverged from the golden:\n got %q\nwant %q", got, want)
	}
}
