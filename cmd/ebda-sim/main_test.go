package main

import (
	"bytes"
	"slices"
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

// short keeps every simulated run to a few hundred cycles.
var short = []string{"-mesh", "4x4", "-warmup", "100", "-measure", "300", "-drain", "200"}

// TestSweep pins a short seeded sweep of two algorithms at two rates,
// and the heatmap layout.
func TestSweep(t *testing.T) {
	code, out, errb := runCLI(t, append([]string{"-algs", "xy,unrestricted", "-rates", "0.1:0.5:0.4"}, short...)...)
	want := `# 4x4 mesh, pattern uniform, packet 5 flits, buffers 4
algorithm        rate      latency        p99   throughput status
xy               0.100         7.5         17       0.0990 ok
xy               0.500        38.1        147       0.4698 ok
unrestricted     0.100         7.7         12       0.0979 ok
unrestricted     0.500        24.7         67       0.4813 ok
`
	if code != 0 || out != want {
		t.Fatalf("exit %d (stderr %q):\n%s", code, errb, out)
	}
	code, out, _ = runCLI(t, append([]string{"-algs", "xy", "-rates", "0.2:0.2:0.1", "-heatmap"}, short...)...)
	if lines := strings.Split(out, "\n"); code != 0 || len(lines) != 9 ||
		!strings.HasPrefix(lines[7], "  (darkest = ") {
		t.Fatalf("heatmap: exit %d:\n%s", code, out)
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-mesh", "1x4"},
		{"-rates", "0.1:0.2"},
		{"-pattern", "nope"},
		{"-bogus"},
	} {
		if code, out, errb := runCLI(t, args...); code != 2 || out != "" || errb == "" {
			t.Errorf("%v: exit %d stdout %q stderr %q, want exit 2 with a message", args, code, out, errb)
		}
	}
}

// TestEveryAlgorithmName sweeps every name of the shared algorithm table,
// aliases included, at one low rate: each is known and gets a row, except
// dateline, which routes only over wraparound links: the simulator's mesh
// has none, so naming it is a usage error that prints nothing.
func TestEveryAlgorithmName(t *testing.T) {
	names := slices.DeleteFunc(algs.Names(), func(n string) bool { return n == "dateline" })
	code, out, errb := runCLI(t, append([]string{"-algs", strings.Join(names, ","), "-rates", "0.05:0.05:0.1"}, short...)...)
	if rows := strings.Count(out, "\n") - 2; code != 0 || errb != "" || rows != len(names) {
		t.Fatalf("exit %d (stderr %q), %d rows for %d names:\n%s", code, errb, rows, len(names), out)
	}
	code, out, errb = runCLI(t, append([]string{"-algs", "xy,dateline"}, short...)...)
	if code != 2 || out != "" || !strings.Contains(errb, "needs them in every dimension") {
		t.Errorf("dateline on a mesh: exit %d stdout %q stderr %q, want exit 2 naming the missing wraparound links", code, out, errb)
	}
}
