package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestTablesDeterministic renders every table twice in the same process
// and requires byte-identical output. Go randomizes map iteration per
// range statement, so any map-order leak in the emitters (or in the
// paper/core layers they call) shows up as a diff here.
func TestTablesDeterministic(t *testing.T) {
	var first, second bytes.Buffer
	if err := renderTables(&first, allTables); err != nil {
		t.Fatalf("first render: %v", err)
	}
	if err := renderTables(&second, allTables); err != nil {
		t.Fatalf("second render: %v", err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("table output is nondeterministic:\n--- first ---\n%s\n--- second ---\n%s",
			first.String(), second.String())
	}
	if first.Len() == 0 {
		t.Fatal("render produced no output")
	}
}

// TestTablesContent spot-checks that each table actually rendered with
// its verification verdict.
func TestTablesContent(t *testing.T) {
	var buf bytes.Buffer
	if err := renderTables(&buf, allTables); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table 1:", "Table 2:", "Table 3:", "Table 4:", "Table 5:",
		"[ok]", "verification:",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(out, "[CYCLIC]") {
		t.Error("a paper table verified as cyclic")
	}
}
