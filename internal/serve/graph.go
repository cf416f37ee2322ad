package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"

	"ebda/internal/cdg"
	"ebda/internal/graphio"
)

// POST /v1/verify/graph: multi-mode verification of an arbitrary
// channel dependence graph supplied inline — the serving face of
// internal/graphio. Requests carry either the structured JSON graph or
// the constellation text form verbatim, plus a mode; verdicts flow
// through the same admission queue, per-request deadline, singleflight
// group, and provenance discipline as /v1/verify, memoized in the
// process-wide mode cache under cdg.ModeKey. The endpoint is local to
// each replica: mode keys are not part of the cluster ring's keyspace.

// Graph request limits.
const (
	// maxGraphChannels bounds a submitted graph's channel count,
	// mirroring the maxNodes bound on concrete networks.
	maxGraphChannels = 4096
	// maxGraphEdges bounds a submitted graph's edge count.
	maxGraphEdges = 1 << 17
)

// GraphSpec is the inline structured encoding of an annotated CDG,
// field-for-field the graphio JSON variant.
type GraphSpec struct {
	Channels int      `json:"channels"`
	Inputs   []int    `json:"inputs"`
	Outputs  []int    `json:"outputs"`
	Edges    [][2]int `json:"edges"`
}

// GraphVerifyRequest asks for one mode verdict over an inline graph.
// Exactly one of Graph (structured) and CDG (constellation text,
// verbatim) must be set. It documents the wire shape for clients; the
// server reads bodies with decodeGraphRequest, not encoding/json.
type GraphVerifyRequest struct {
	Graph  *GraphSpec `json:"graph,omitempty"`
	CDG    string     `json:"cdg,omitempty"`
	Mode   string     `json:"mode"`
	Escape []int      `json:"escape,omitempty"`
}

// GraphVerifyResponse is the mode verdict. Path and Cycle render the
// witness chains in the engine's "n1 => n17" form; Key is the
// mode-aware cache identity (hex).
type GraphVerifyResponse struct {
	Mode             string `json:"mode"`
	Channels         int    `json:"channels"`
	Edges            int    `json:"edges"`
	OK               bool   `json:"ok"`
	Reason           string `json:"reason,omitempty"`
	Path             string `json:"path,omitempty"`
	Cycle            string `json:"cycle,omitempty"`
	SubrelationEdges int    `json:"subrelation_edges,omitempty"`
	Provenance       string `json:"provenance"`
	Key              string `json:"key"`
}

// graphRequest is a decoded /v1/verify/graph body.
type graphRequest struct {
	graph  *graphio.Graph
	mode   cdg.GraphMode
	escape []int
}

// graphLimits are the per-request graph bounds, enforced while parsing.
var graphLimits = graphio.Limits{Channels: maxGraphChannels, Edges: maxGraphEdges}

// graphDecoder is the pooled per-request decode state: the body buffer
// and the graphio decoder's scratch. Nothing a decoded request holds
// points into either, so it goes back to the pool before the verdict
// is computed.
type graphDecoder struct {
	body []byte
	dec  graphio.Decoder
}

// maxPooledBody caps the body buffer a pooled decoder keeps: a rare huge
// body is read once and its buffer left to the collector.
const maxPooledBody = 256 << 10

var graphDecoders = sync.Pool{New: func() any {
	return &graphDecoder{dec: graphio.Decoder{Limits: graphLimits}}
}}

// decodeGraphRequest reads one request body of about size bytes (-1 when
// unknown), at most MaxBodyBytes, and decodes it in a single pass: the
// envelope here, the graph by the graphio decoder, edges straight into
// the edge set. It is stricter than encoding/json in three ways, each a
// 400: an edge that is not exactly two integers (nor may null stand in
// for an id), a repeated key, and a key that matches a field only
// case-insensitively. Nothing but white space may follow the request
// object.
func decodeGraphRequest(r io.Reader, size int64) (graphRequest, error) {
	d := graphDecoders.Get().(*graphDecoder)
	defer func() {
		if cap(d.body) <= maxPooledBody {
			graphDecoders.Put(d)
		}
	}()
	if size >= 0 && size <= MaxBodyBytes && int(size) >= cap(d.body) {
		d.body = make([]byte, 0, size+1) // +1: room to read the EOF
	}
	var err error
	if d.body, err = readBody(r, d.body[:0]); err != nil {
		return graphRequest{}, err
	}
	return d.decode(d.body)
}

// readBody appends all of r to buf, failing past MaxBodyBytes.
func readBody(r io.Reader, buf []byte) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if len(buf) > MaxBodyBytes {
			return buf, fmt.Errorf("request body exceeds %d bytes", MaxBodyBytes)
		}
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, fmt.Errorf("reading request body: %w", err)
		}
	}
}

// The request envelope's fields, as bits of a seen-set.
const (
	fieldGraph = 1 << iota
	fieldCDG
	fieldMode
	fieldEscape
)

// decode parses the request envelope in body, which it modifies (strings
// are unescaped in place).
func (d *graphDecoder) decode(body []byte) (graphRequest, error) {
	var req graphRequest
	s := graphio.NewScanner(body)
	if err := s.BeginObject(); err != nil {
		return req, err
	}
	mode, seen := "", 0
	for {
		key, more, err := s.NextKey()
		if err != nil {
			return req, err
		}
		if !more {
			break
		}
		var field int
		switch string(key) {
		case "graph":
			field = fieldGraph
		case "cdg":
			field = fieldCDG
		case "mode":
			field = fieldMode
		case "escape":
			field = fieldEscape
		default:
			return req, fmt.Errorf("unknown field %q", key)
		}
		if seen&field != 0 {
			return req, fmt.Errorf("repeated field %q", key)
		}
		seen |= field
		switch field {
		case fieldGraph:
			if s.Null() {
				continue
			}
			if req.graph != nil {
				return req, errBothEncodings
			}
			req.graph, err = d.dec.JSON(&s)
		case fieldCDG:
			var text []byte
			if s.Null() {
				continue
			}
			if text, err = s.String(); err != nil || len(text) == 0 {
				break
			}
			if req.graph != nil {
				return req, errBothEncodings
			}
			req.graph, err = d.dec.Text(text)
		case fieldMode:
			var b []byte
			if !s.Null() {
				b, err = s.String()
				mode = string(b)
			}
		case fieldEscape:
			req.escape, err = s.Ints(nil)
		}
		if err != nil {
			return req, err
		}
	}
	if err := s.End(); err != nil {
		return req, err
	}
	if req.graph == nil {
		return req, errors.New("one of graph or cdg is required")
	}
	var err error
	req.mode, err = cdg.ParseGraphMode(mode)
	return req, err
}

var errBothEncodings = errors.New("use either graph or cdg, not both")

// build checks the decoded request's escape set and returns its cache
// query. Like VerifyRequest.build it returns client errors only —
// everything here maps to a 400.
func (req *graphRequest) build() (cdg.Query[cdg.ModeReport], error) {
	var none cdg.Query[cdg.ModeReport]
	g := req.graph
	if req.mode == cdg.ModeEscape && len(req.escape) == 0 {
		return none, errors.New("mode escape requires a non-empty escape set")
	}
	for _, v := range req.escape {
		if v < 0 || v >= g.Edges.NumNodes() {
			return none, fmt.Errorf("escape channel %d outside [0, %d)", v, g.Edges.NumNodes())
		}
	}
	return cdg.ModeQuery(g.Edges, req.mode, g.Inputs, g.Outputs, req.escape), nil
}

func (s *Server) serveGraph(ctx context.Context, w http.ResponseWriter, r *http.Request) (any, string, error) {
	req, err := decodeGraphRequest(http.MaxBytesReader(w, r.Body, MaxBodyBytes), r.ContentLength)
	if err != nil {
		return bad(err)
	}
	q, err := req.build()
	if err != nil {
		return bad(err)
	}
	rep, ok := lookup(ctx, s.modes, q.Key, q.Check)
	prov := provCache
	if ok {
		obsVerdictCache.Inc()
	} else if rep, prov, err = fly(ctx, s, s.modes, s.gflight, q, provComputed); err != nil {
		return nil, "", err
	}
	resp := &GraphVerifyResponse{
		Mode:       rep.Mode.String(),
		Channels:   rep.Nodes,
		Edges:      rep.Edges,
		OK:         rep.OK,
		Reason:     rep.Reason,
		Provenance: prov,
		Key:        strconv.FormatUint(q.Key, 16),
	}
	if len(rep.Path) > 0 {
		resp.Path = cdg.FormatNodeChain(rep.Path)
	}
	if len(rep.Cycle) > 0 {
		resp.Cycle = cdg.FormatNodeChain(rep.Cycle)
	}
	if rep.OK && rep.Mode == cdg.ModeSubrel {
		resp.SubrelationEdges = len(rep.Subrelation)
	}
	return resp, prov, nil
}
