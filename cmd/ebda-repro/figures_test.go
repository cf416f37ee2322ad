package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestFiguresDeterministic renders every figure twice in the same process
// and requires byte-identical output. Go randomizes map iteration per
// range statement, so any map-order leak in the emitters (or in the
// paper/core layers they call) shows up as a diff here.
func TestFiguresDeterministic(t *testing.T) {
	var first, second bytes.Buffer
	if err := renderFigures(&first, allFigs); err != nil {
		t.Fatalf("first render: %v", err)
	}
	if err := renderFigures(&second, allFigs); err != nil {
		t.Fatalf("second render: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("figure output is nondeterministic:\n--- first ---\n%s\n--- second ---\n%s",
			first.String(), second.String())
	}
	if first.Len() == 0 {
		t.Fatal("render produced no output")
	}
}

// TestFiguresUnknown checks the error path run turns into exit status 2.
func TestFiguresUnknown(t *testing.T) {
	var buf bytes.Buffer
	if err := renderFigures(&buf, []int{11}); err == nil {
		t.Fatal("renderFigures(11) succeeded; want unknown-figure error")
	}
}

// TestFiguresContent spot-checks that each figure actually rendered.
func TestFiguresContent(t *testing.T) {
	var buf bytes.Buffer
	if err := renderFigures(&buf, allFigs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Section 2:", "Figure 3:", "Figure 4:", "Figure 5:", "Figure 6:",
		"Figure 7:", "Figure 8:", "Figure 9:", "Figure 10:",
		"Section 5 worked example", "Section 6.2:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}
