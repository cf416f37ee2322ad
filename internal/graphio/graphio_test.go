package graphio

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ebda/internal/cdg"
)

const goldenDir = "../../testdata/graphio"

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// snippetsExample is the constellation verify.py CDG from SNIPPETS.md
// §1: an xy-routing per-output graph for destination 8.
const snippetsExample = `24
1 2 3 4 5 6 7
8
1 17
2 8
3 17
4 19
5 23
6 19
7 23
17 8
19 8
23 19
`

func TestParseSnippetsExample(t *testing.T) {
	g, err := ParseCDG([]byte(snippetsExample))
	if err != nil {
		t.Fatal(err)
	}
	if g.Edges.NumNodes() != 24 || g.Edges.NumEdges() != 10 {
		t.Fatalf("parsed %d channels, %d edges", g.Edges.NumNodes(), g.Edges.NumEdges())
	}
	if len(g.Inputs) != 7 || len(g.Outputs) != 1 || g.Outputs[0] != 8 {
		t.Fatalf("annotations: in=%v out=%v", g.Inputs, g.Outputs)
	}
	for _, mode := range []cdg.GraphMode{cdg.ModeLoop, cdg.ModeLiveness, cdg.ModeSubrel} {
		rep, err := g.Verify(mode, nil)
		if err != nil || !rep.OK {
			t.Fatalf("%s: %+v err=%v", mode, rep, err)
		}
	}
	// Round trip is byte-stable: the example is already canonical.
	if got := g.ExportCDG(); !bytes.Equal(got, []byte(snippetsExample)) {
		t.Fatalf("export drifted:\n%s", got)
	}
}

// xyPerOutputGraph regenerates the committed xy3x3-out4.txt golden: a
// 3x3 mesh routed XY toward the centre node 4. Channels: injection i
// per node i (0..8, the inputs), ejection 9 (the output), then one
// channel per directed mesh link XY uses, ordered by (from, to) node.
func xyPerOutputGraph(t *testing.T) *Graph {
	t.Helper()
	links := [][2]int{{0, 1}, {1, 4}, {2, 1}, {3, 4}, {5, 4}, {6, 7}, {7, 4}, {8, 7}}
	linkCh := make(map[[2]int]int, len(links))
	for i, l := range links {
		linkCh[l] = 10 + i
	}
	var edges [][2]int
	seen := make(map[[2]int]bool)
	add := func(from, to int) {
		if !seen[[2]int{from, to}] {
			seen[[2]int{from, to}] = true
			edges = append(edges, [2]int{from, to})
		}
	}
	for src := 0; src < 9; src++ {
		x, y := src%3, src/3
		prev := src // injection channel
		for x != 1 || y != 1 {
			from := y*3 + x
			if x != 1 {
				x += sign(1 - x)
			} else {
				y += sign(1 - y)
			}
			ch := linkCh[[2]int{from, y*3 + x}]
			add(prev, ch)
			prev = ch
		}
		add(prev, 9)
	}
	g, err := New(18, []int{0, 1, 2, 3, 4, 5, 6, 7, 8}, []int{9}, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func sign(v int) int {
	if v < 0 {
		return -1
	}
	if v > 0 {
		return 1
	}
	return 0
}

func TestXYGoldenMatchesGenerator(t *testing.T) {
	want := readGolden(t, "xy3x3-out4.txt")
	if got := xyPerOutputGraph(t).ExportCDG(); !bytes.Equal(got, want) {
		t.Fatalf("golden drifted from generator:\n%s", got)
	}
}

func TestRoundTripGoldens(t *testing.T) {
	for _, name := range []string{"xy3x3-out4.txt", "cycle4.txt", "escape-ok.txt", "deadend.txt"} {
		data := readGolden(t, name)
		g, err := ParseCDG(data)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := g.ExportCDG(); !bytes.Equal(got, data) {
			t.Fatalf("%s: round trip drifted:\n%s", name, got)
		}
		// Text -> JSON -> text lands on the same canonical bytes.
		g2, err := Parse(g.ExportJSON())
		if err != nil {
			t.Fatalf("%s: reparse JSON: %v", name, err)
		}
		if got := g2.ExportCDG(); !bytes.Equal(got, data) {
			t.Fatalf("%s: JSON round trip drifted:\n%s", name, got)
		}
	}
}

func TestJSONGoldenRoundTrip(t *testing.T) {
	data := readGolden(t, "escape-ok.json")
	g, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.ExportJSON(); !bytes.Equal(got, data) {
		t.Fatalf("JSON export drifted:\n%s", got)
	}
	text := readGolden(t, "escape-ok.txt")
	if got := g.ExportCDG(); !bytes.Equal(got, text) {
		t.Fatalf("JSON and text goldens disagree:\n%s", got)
	}
}

// TestGoldenVerdicts pins the constellation-style verdicts and witness
// shapes for every committed golden in all four modes.
func TestGoldenVerdicts(t *testing.T) {
	type want struct {
		mode   cdg.GraphMode
		escape []int
		ok     bool
		reason string
	}
	cases := map[string][]want{
		"xy3x3-out4.txt": {
			{mode: cdg.ModeLoop, ok: true},
			{mode: cdg.ModeLiveness, ok: true},
			{mode: cdg.ModeEscape, escape: []int{10, 11, 12, 13, 14, 15, 16, 17}, ok: true},
			{mode: cdg.ModeSubrel, ok: true},
		},
		"cycle4.txt": {
			{mode: cdg.ModeLoop, reason: cdg.ReasonCycle},
			{mode: cdg.ModeLiveness, reason: cdg.ReasonCycle},
			{mode: cdg.ModeEscape, escape: []int{2}, reason: cdg.ReasonEscapeStranded},
			{mode: cdg.ModeSubrel, reason: cdg.ReasonNoSubrel},
		},
		"escape-ok.txt": {
			{mode: cdg.ModeLoop, reason: cdg.ReasonCycle},
			{mode: cdg.ModeLiveness, reason: cdg.ReasonCycle},
			{mode: cdg.ModeEscape, escape: []int{4}, ok: true},
			{mode: cdg.ModeSubrel, ok: true},
		},
		"deadend.txt": {
			{mode: cdg.ModeLoop, ok: true},
			{mode: cdg.ModeLiveness, reason: cdg.ReasonDeadEnd},
			{mode: cdg.ModeEscape, escape: []int{1}, reason: cdg.ReasonEscapeStranded},
			{mode: cdg.ModeSubrel, reason: cdg.ReasonNoSubrel},
		},
	}
	for name, wants := range cases {
		g, err := ParseCDG(readGolden(t, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, w := range wants {
			rep, err := g.Verify(w.mode, w.escape)
			if err != nil {
				t.Fatalf("%s %s: %v", name, w.mode, err)
			}
			if rep.OK != w.ok || rep.Reason != w.reason {
				t.Fatalf("%s %s: got ok=%v reason=%q, want ok=%v reason=%q",
					name, w.mode, rep.OK, rep.Reason, w.ok, w.reason)
			}
			if !rep.OK && len(rep.Path) == 0 && len(rep.Cycle) == 0 {
				t.Fatalf("%s %s: violation without witness: %+v", name, w.mode, rep)
			}
			if w.mode == cdg.ModeSubrel && rep.OK && len(rep.Subrelation) == 0 {
				t.Fatalf("%s subrel: verified without a subrelation", name)
			}
		}
	}
}

func TestCommentsAndBlankLines(t *testing.T) {
	in := "# per-output CDG\n\n4\n0\n3\n# edges\n0 1\n\n1 2\n2 3\n"
	g, err := ParseCDG([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.Edges.NumEdges() != 3 {
		t.Fatalf("edges: %d", g.Edges.NumEdges())
	}
	// Export is canonical: comments and blank lines do not survive.
	want := "4\n0\n3\n0 1\n1 2\n2 3\n"
	if got := string(g.ExportCDG()); got != want {
		t.Fatalf("export: %q", got)
	}
}

func TestEmptyIDSets(t *testing.T) {
	g, err := ParseCDG([]byte("2\n\n\n0 1\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Inputs) != 0 || len(g.Outputs) != 0 {
		t.Fatalf("sets: in=%v out=%v", g.Inputs, g.Outputs)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want error
		line int
	}{
		{"empty", "", ErrMissingSection, 0},
		{"count only", "4\n", ErrMissingSection, 0},
		{"no outputs", "4\n0\n", ErrMissingSection, 0},
		{"bad count", "x\n0\n1\n", ErrChannelCount, 1},
		{"negative count", "-2\n\n\n", ErrChannelCount, 1},
		{"huge count", "99999999\n\n\n", ErrChannelCount, 1},
		{"input out of range", "2\n5\n1\n", ErrIDRange, 2},
		{"output out of range", "2\n0\n-1\n", ErrIDRange, 3},
		{"sender out of range", "2\n0\n1\n7 1\n", ErrIDRange, 4},
		{"receiver out of range", "2\n0\n1\n0 9\n", ErrIDRange, 4},
		{"duplicate edge", "3\n0\n2\n0 1\n0 1\n", ErrDuplicateEdge, 5},
		{"duplicate edge one line", "3\n0\n2\n0 1 1\n", ErrDuplicateEdge, 4},
		// Edges of a sender below an earlier one are merged at the end;
		// a repeat among them still names its own line.
		{"duplicate of an earlier row", "3\n0\n2\n1 2\n0 1\n1 2\n", ErrDuplicateEdge, 6},
		{"duplicate within revisits", "3\n0\n2\n2 0\n0 1\n1 0\n0 1\n", ErrDuplicateEdge, 7},
		{"duplicate input", "3\n0 0\n2\n", ErrDuplicateID, 2},
		{"lonely sender", "3\n0\n2\n1\n", ErrSyntax, 4},
		{"non-numeric edge", "3\n0\n2\n0 x\n", ErrSyntax, 4},
	}
	for _, tc := range cases {
		_, err := ParseCDG([]byte(tc.in))
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
		}
		var pe *ParseError
		if !errors.As(err, &pe) {
			t.Fatalf("%s: error %T is not a *ParseError", tc.name, err)
		}
		if tc.line > 0 && pe.Line != tc.line {
			t.Fatalf("%s: reported line %d, want %d", tc.name, pe.Line, tc.line)
		}
	}
}

func TestParseJSONErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want error
	}{
		{"unknown field", `{"channels":2,"inputs":[],"outputs":[],"edges":[],"extra":1}`, ErrSyntax},
		{"trailing data", `{"channels":2,"inputs":[],"outputs":[],"edges":[]} {}`, ErrSyntax},
		{"bad json", `{`, ErrSyntax},
		{"range", `{"channels":2,"inputs":[9],"outputs":[],"edges":[]}`, ErrIDRange},
		{"negative channels", `{"channels":-1,"inputs":[],"outputs":[],"edges":[]}`, ErrChannelCount},
		{"duplicate edge", `{"channels":2,"inputs":[],"outputs":[],"edges":[[0,1],[0,1]]}`, ErrDuplicateEdge},
		// encoding/json read [0] as the self-loop [0,0] and [0,1,2] as
		// [0,1]; an edge is exactly two integers.
		{"edge of one id", `{"channels":2,"inputs":[],"outputs":[],"edges":[[0]]}`, ErrSyntax},
		{"edge of three ids", `{"channels":3,"inputs":[],"outputs":[],"edges":[[0,1,2]]}`, ErrSyntax},
		{"null in edge", `{"channels":2,"inputs":[],"outputs":[],"edges":[[null,1]]}`, ErrSyntax},
		{"null id", `{"channels":2,"inputs":[null],"outputs":[],"edges":[]}`, ErrSyntax},
		{"fractional id", `{"channels":2,"inputs":[1.0],"outputs":[],"edges":[]}`, ErrSyntax},
		{"repeated field", `{"channels":2,"channels":3,"inputs":[],"outputs":[],"edges":[]}`, ErrSyntax},
		{"case-folded field", `{"Channels":2,"inputs":[],"outputs":[],"edges":[]}`, ErrSyntax},
		{"trailing bracket", `{"channels":2,"inputs":[],"outputs":[],"edges":[]}}`, ErrSyntax},
		{"late range", `{"edges":[[0,1]],"channels":1}`, ErrIDRange},
	}
	for _, tc := range cases {
		if _, err := ParseJSON([]byte(tc.in)); !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
}

// TestParseJSONFieldOrder pins that fields may come in any order: edges
// read before the channel count are held and checked once it is known,
// and senders may revisit earlier rows.
func TestParseJSONFieldOrder(t *testing.T) {
	want, err := ParseJSON([]byte(`{"channels":3,"inputs":[0],"outputs":[2],"edges":[[0,1],[0,2],[1,2]]}`))
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range []string{
		`{"edges":[[1,2],[0,2],[0,1]],"outputs":[2],"inputs":[0],"channels":3}`,
		`{"outputs":[2],"channels":3,"edges":[[0,2],[1,2],[0,1]],"inputs":[0]}`,
		`{"ch\u0061nnels":3,"inputs":[0],"outputs":[2],"edges":[[0,1],[0,2],[1,2]]}`,
	} {
		g, err := ParseJSON([]byte(in))
		if err != nil {
			t.Fatalf("%s: %v", in, err)
		}
		if !bytes.Equal(g.ExportCDG(), want.ExportCDG()) {
			t.Fatalf("%s: parsed as\n%s", in, g.ExportCDG())
		}
	}
}

// TestDecoderLimits pins that a count over Limits.Channels fails before
// the edge set is allocated and the edge past Limits.Edges fails before
// it is stored, in both encodings.
func TestDecoderLimits(t *testing.T) {
	d := Decoder{Limits: Limits{Channels: 8, Edges: 2}}
	cases := []struct {
		name, in string
		json     bool
		want     error
	}{
		{"text count", "9\n\n\n", false, ErrChannelCount},
		{"text edges", "4\n\n\n0 1 2\n1 2\n", false, ErrEdgeCount},
		{"json count", `{"channels":9}`, true, ErrChannelCount},
		{"json edges", `{"channels":4,"edges":[[0,1],[0,2],[1,2]]}`, true, ErrEdgeCount},
		{"json early edges", `{"edges":[[0,1],[0,2],[1,2]],"channels":4}`, true, ErrEdgeCount},
		{"json early id", `{"edges":[[0,8]],"channels":4}`, true, ErrIDRange},
	}
	for _, tc := range cases {
		var err error
		if tc.json {
			s := NewScanner([]byte(tc.in))
			_, err = d.JSON(&s)
		} else {
			_, err = d.Text([]byte(tc.in))
		}
		if !errors.Is(err, tc.want) {
			t.Fatalf("%s: got %v, want %v", tc.name, err, tc.want)
		}
	}
	for _, in := range []string{"8\n\n\n0 1 2\n", `{"channels":8,"edges":[[0,1],[7,7]]}`} {
		var err error
		if in[0] == '{' {
			s := NewScanner([]byte(in))
			_, err = d.JSON(&s)
		} else {
			_, err = d.Text([]byte(in))
		}
		if err != nil {
			t.Fatalf("%q at the limits: %v", in, err)
		}
	}
}

func TestParseSniffsJSON(t *testing.T) {
	g, err := Parse([]byte("  \n\t" + `{"channels":1,"inputs":[],"outputs":[0],"edges":[]}`))
	if err != nil || g.Edges.NumNodes() != 1 {
		t.Fatalf("sniff: %+v err=%v", g, err)
	}
}

func TestVerifyEscapeRange(t *testing.T) {
	g, err := New(2, []int{0}, []int{1}, [][2]int{{0, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Verify(cdg.ModeEscape, []int{7}); !errors.Is(err, ErrIDRange) {
		t.Fatalf("escape range: %v", err)
	}
}

// FuzzParseCDG: the parser must never panic on arbitrary bytes — only
// return typed errors — and every accepted graph must round-trip to
// canonical bytes stably.
func FuzzParseCDG(f *testing.F) {
	f.Add([]byte(snippetsExample))
	for _, name := range []string{"xy3x3-out4.txt", "cycle4.txt", "escape-ok.txt", "deadend.txt", "escape-ok.json"} {
		data, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte("2\n\n\n0 1\n"))
	f.Add([]byte("# comment\n3\n0 1\n2\n0 2\n1 2\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Parse(data)
		if err != nil {
			var pe *ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("untyped parse error %T: %v", err, err)
			}
			return
		}
		canon := g.ExportCDG()
		g2, err := ParseCDG(canon)
		if err != nil {
			t.Fatalf("canonical export does not reparse: %v\n%s", err, canon)
		}
		if again := g2.ExportCDG(); !bytes.Equal(canon, again) {
			t.Fatalf("export not stable:\n%s\n---\n%s", canon, again)
		}
	})
}
