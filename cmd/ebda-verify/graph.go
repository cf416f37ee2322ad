package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"ebda/internal/cdg"
	"ebda/internal/graphio"
)

// The graph modes import, verify and export arbitrary channel dependence
// graphs, making every verification mode available for networks the
// repository's own generators never built.

// loadGraph reads and parses one graph argument; "-" is stdin.
func loadGraph(path string) (*graphio.Graph, error) {
	var (
		data []byte
		err  error
	)
	if path == "-" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(path)
	}
	if err != nil {
		return nil, err
	}
	return graphio.Parse(data)
}

func runGraphImport(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("graph import", stderr)
	if code, ok := parseFlags(fs, args, 1); !ok {
		return code
	}
	g, err := loadGraph(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "%d channels, %d edges, %d inputs, %d outputs\n",
		g.Edges.NumNodes(), g.Edges.NumEdges(), len(g.Inputs), len(g.Outputs))
	return 0
}

// runGraphVerify proves one property of a graph: 0 when it holds, 1
// when it is violated.
func runGraphVerify(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("graph verify", stderr)
	modeSpec := fs.String("mode", "loop", "property to prove: loop, liveness, escape or subrel")
	escapeSpec := fs.String("escape", "", "escape channel ids for -mode=escape (comma or space separated)")
	if code, ok := parseFlags(fs, args, 1); !ok {
		return code
	}
	mode, err := cdg.ParseGraphMode(*modeSpec)
	if err != nil {
		return fail(stderr, err)
	}
	escape, err := parseIDList(*escapeSpec)
	if err != nil {
		return fail(stderr, err)
	}
	if mode == cdg.ModeEscape && len(escape) == 0 {
		return fail(stderr, errors.New("-mode=escape needs -escape IDS"))
	}
	g, err := loadGraph(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	for _, v := range escape {
		if v < 0 || v >= g.Edges.NumNodes() {
			return fail(stderr, fmt.Errorf("escape channel %d outside [0, %d)", v, g.Edges.NumNodes()))
		}
	}
	rep, _ := cdg.DefaultModeCache.Verify(context.Background(), cdg.ModeQuery(g.Edges, mode, g.Inputs, g.Outputs, escape))
	fmt.Fprintln(stdout, rep.String())
	if rep.OK {
		return 0
	}
	return 1
}

func runGraphExport(args []string, stdout, stderr io.Writer) int {
	fs := newFlags("graph export", stderr)
	asJSON := fs.Bool("json", false, "emit the canonical JSON variant instead of the text form")
	outPath := fs.String("o", "", "write to this file instead of stdout")
	if code, ok := parseFlags(fs, args, 1); !ok {
		return code
	}
	g, err := loadGraph(fs.Arg(0))
	if err != nil {
		return fail(stderr, err)
	}
	out := g.ExportCDG()
	if *asJSON {
		out = g.ExportJSON()
	}
	if *outPath != "" {
		err = os.WriteFile(*outPath, out, 0o644)
	} else {
		_, err = stdout.Write(out)
	}
	if err != nil {
		return fail(stderr, err)
	}
	return 0
}

// parseIDList accepts "4", "4,5", or "4 5".
func parseIDList(s string) ([]int, error) {
	fields := strings.FieldsFunc(s, func(r rune) bool { return r == ',' || r == ' ' || r == '\t' })
	out := make([]int, 0, len(fields))
	for _, f := range fields {
		v, err := strconv.Atoi(f)
		if err != nil {
			return nil, fmt.Errorf("%q is not a channel id", f)
		}
		out = append(out, v)
	}
	return out, nil
}
