// Command ebda-graph imports, verifies, and exports arbitrary channel
// dependence graphs in the constellation interchange format (or its
// canonical JSON variant), making every verification mode available for
// networks the repository's own generators never built.
//
// Usage:
//
//	ebda-graph import testdata/graphio/escape-ok.txt
//	ebda-graph verify -mode=liveness testdata/graphio/xy3x3-out4.txt
//	ebda-graph verify -mode=escape -escape 4 testdata/graphio/escape-ok.txt
//	ebda-graph export -json testdata/graphio/escape-ok.txt
//
// Exit status: 0 when the command succeeds (and, for verify, the
// property holds), 1 when the property is violated, 2 on usage or
// input errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"ebda/internal/cdg"
	"ebda/internal/graphio"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	switch args[0] {
	case "import":
		return cmdImport(args[1:], stdout, stderr)
	case "verify":
		return cmdVerify(args[1:], stdout, stderr)
	case "export":
		return cmdExport(args[1:], stdout, stderr)
	case "-h", "-help", "--help", "help":
		usage(stdout)
		return 0
	}
	fmt.Fprintf(stderr, "ebda-graph: unknown command %q\n", args[0])
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage:
  ebda-graph import FILE                    parse and summarise a graph
  ebda-graph verify -mode=MODE [-escape IDS] FILE
                                            prove MODE (loop|liveness|escape|subrel)
  ebda-graph export [-json] [-o FILE] FILE  re-emit the canonical form
FILE may be - for stdin; both the text and JSON encodings are accepted.
`)
}

// load reads and parses one graph argument.
func load(path string) (*graphio.Graph, error) {
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

func cmdImport(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("import", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if fs.Parse(args) != nil || fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: ebda-graph import FILE")
		return 2
	}
	g, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "ebda-graph: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "%d channels, %d edges, %d inputs, %d outputs\n",
		g.Edges.NumNodes(), g.Edges.NumEdges(), len(g.Inputs), len(g.Outputs))
	return 0
}

func cmdVerify(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("verify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	modeSpec := fs.String("mode", "loop", "property to prove: loop, liveness, escape or subrel")
	escapeSpec := fs.String("escape", "", "escape channel ids for -mode=escape (comma or space separated)")
	if fs.Parse(args) != nil || fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: ebda-graph verify -mode=MODE [-escape IDS] FILE")
		return 2
	}
	mode, err := cdg.ParseGraphMode(*modeSpec)
	if err != nil {
		fmt.Fprintf(stderr, "ebda-graph: %v\n", err)
		return 2
	}
	escape, err := parseIDList(*escapeSpec)
	if err != nil {
		fmt.Fprintf(stderr, "ebda-graph: %v\n", err)
		return 2
	}
	if mode == cdg.ModeEscape && len(escape) == 0 {
		fmt.Fprintln(stderr, "ebda-graph: -mode=escape needs -escape IDS")
		return 2
	}
	g, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "ebda-graph: %v\n", err)
		return 2
	}
	for _, v := range escape {
		if v < 0 || v >= g.Edges.NumNodes() {
			fmt.Fprintf(stderr, "ebda-graph: escape channel %d outside [0, %d)\n", v, g.Edges.NumNodes())
			return 2
		}
	}
	rep, _ := cdg.DefaultModeCache.Verify(context.Background(), cdg.ModeQuery(g.Edges, mode, g.Inputs, g.Outputs, escape))
	fmt.Fprintln(stdout, rep.String())
	if rep.OK {
		return 0
	}
	return 1
}

func cmdExport(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("export", flag.ContinueOnError)
	fs.SetOutput(stderr)
	asJSON := fs.Bool("json", false, "emit the canonical JSON variant instead of the text form")
	outPath := fs.String("o", "", "write to this file instead of stdout")
	if fs.Parse(args) != nil || fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: ebda-graph export [-json] [-o FILE] FILE")
		return 2
	}
	g, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "ebda-graph: %v\n", err)
		return 2
	}
	out := g.ExportCDG()
	if *asJSON {
		out = g.ExportJSON()
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, out, 0o644); err != nil {
			fmt.Fprintf(stderr, "ebda-graph: %v\n", err)
			return 2
		}
		return 0
	}
	if _, err := stdout.Write(out); err != nil {
		fmt.Fprintf(stderr, "ebda-graph: %v\n", err)
		return 2
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
