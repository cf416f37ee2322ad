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

// TestSynthesize pins the cost line of XY routing's decision rules, the
// Go emitter's function name and the Section 5.4 comparison table.
func TestSynthesize(t *testing.T) {
	xy := "PA[X+] -> PB[X-] -> PC[Y+] -> PD[Y-]"
	code, out, errb := runCLI(t, "-chain", xy, "-name", "xy")
	if code != 0 || !strings.HasSuffix(out, "\ncost: 8 rules, 16 comparisons (12 input cases merged)\n") {
		t.Fatalf("pseudo-code: exit %d (stderr %q):\n%s", code, errb, out)
	}
	code, out, _ = runCLI(t, "-chain", xy, "-name", "xy", "-go")
	if code != 0 || !strings.Contains(out, "func routexy(") {
		t.Fatalf("-go: exit %d:\n%s", code, out)
	}
	code, out, _ = runCLI(t, "-compare")
	want := `design            turns  rules  comparisons   merged
xy                    4      8           16       12
west-first            6      8           16       16
north-last            6      8           16       16
negative-first        6      8           16       16
fully-adaptive       12     22           58       12
`
	if code != 0 || out != want {
		t.Fatalf("-compare: exit %d:\n%s", code, out)
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{{}, {"-chain", "PA[X+] -> "}, {"-bogus"}} {
		if code, out, errb := runCLI(t, args...); code != 2 || out != "" || errb == "" {
			t.Errorf("%v: exit %d stdout %q stderr %q, want exit 2 with a message", args, code, out, errb)
		}
	}
}
