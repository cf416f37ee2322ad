package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ebda/internal/algs"
)

func runCLI(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

// TestDraw renders a turn diagram to stdout and a heatmap into a file,
// and requires the file to hold the reported SVG.
func TestDraw(t *testing.T) {
	code, out, errb := runCLI(t, "-chain", "PA[X+ X- Y-] -> PB[Y+]")
	if code != 0 || !strings.HasPrefix(out, "<svg") || !strings.HasSuffix(out, "</svg>\n") {
		t.Fatalf("turn diagram: exit %d (stderr %q):\n%s", code, errb, out)
	}
	path := filepath.Join(t.TempDir(), "heat.svg")
	code, out, errb = runCLI(t, "-heatmap", "-mesh", "4x4", "-o", path)
	if code != 0 {
		t.Fatalf("heatmap: exit %d (stderr %q)", code, errb)
	}
	svg, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("wrote %s (%d bytes)\n", path, len(svg)); out != want || !bytes.HasPrefix(svg, []byte("<svg")) {
		t.Fatalf("heatmap: stdout %q, want %q; file starts %.20q", out, want, svg)
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-chain", "PA[X+] -> "},
		{"-heatmap", "-mesh", "x8"},
		{"-heatmap", "-alg", "nope"},
		{"-bogus"},
	} {
		if code, out, errb := runCLI(t, args...); code != 2 || out != "" || errb == "" {
			t.Errorf("%v: exit %d stdout %q stderr %q, want exit 2 with a message", args, code, out, errb)
		}
	}
}

// TestHeatmapEveryAlgorithmName draws a heatmap once per name of the
// shared algorithm table, aliases included: each is known and renders,
// except that dateline routes only over wraparound links, which the
// heatmap's mesh lacks, so naming it is a usage error before anything
// is simulated.
func TestHeatmapEveryAlgorithmName(t *testing.T) {
	for _, name := range algs.Names() {
		code, out, errb := runCLI(t, "-heatmap", "-alg", name, "-mesh", "4x4", "-rate", "0.05")
		if name == "dateline" {
			if code != 2 || out != "" || !strings.Contains(errb, "needs them in every dimension") {
				t.Errorf("-alg %s: exit %d stdout %q stderr %q, want exit 2 naming the missing wraparound links", name, code, out, errb)
			}
			continue
		}
		if code != 0 || errb != "" || !strings.HasPrefix(out, "<svg") {
			t.Errorf("-alg %s: exit %d (stderr %q)", name, code, errb)
		}
	}
}
