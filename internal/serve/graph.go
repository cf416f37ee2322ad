package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"

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
// verbatim) must be set.
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

// build validates the request, parses the graph and returns its cache
// query. Like VerifyRequest.build it returns client errors only —
// everything here maps to a 400.
func (req *GraphVerifyRequest) build() (cdg.Query[cdg.ModeReport], error) {
	var none cdg.Query[cdg.ModeReport]
	mode, err := cdg.ParseGraphMode(req.Mode)
	if err != nil {
		return none, err
	}
	var g *graphio.Graph
	switch {
	case req.Graph != nil && req.CDG != "":
		return none, errors.New("use either graph or cdg, not both")
	case req.Graph != nil:
		g, err = graphio.New(req.Graph.Channels, req.Graph.Inputs, req.Graph.Outputs, req.Graph.Edges)
	case req.CDG != "":
		g, err = graphio.ParseCDG([]byte(req.CDG))
	default:
		return none, errors.New("one of graph or cdg is required")
	}
	if err != nil {
		return none, err
	}
	if n := g.Edges.NumNodes(); n > maxGraphChannels {
		return none, fmt.Errorf("graph has %d channels, limit %d", n, maxGraphChannels)
	}
	if n := g.Edges.NumEdges(); n > maxGraphEdges {
		return none, fmt.Errorf("graph has %d edges, limit %d", n, maxGraphEdges)
	}
	if mode == cdg.ModeEscape && len(req.Escape) == 0 {
		return none, errors.New("mode escape requires a non-empty escape set")
	}
	for _, v := range req.Escape {
		if v < 0 || v >= g.Edges.NumNodes() {
			return none, fmt.Errorf("escape channel %d outside [0, %d)", v, g.Edges.NumNodes())
		}
	}
	return cdg.ModeQuery(g.Edges, mode, g.Inputs, g.Outputs, req.Escape), nil
}

func (s *Server) handleGraph(w http.ResponseWriter, r *http.Request) {
	obsReqGraph.Inc()
	t, sw, r := s.startTrace(w, r, "serve.graph")
	defer func() { t.Finish(sw.status) }()
	w = sw
	sp := phaseServeGraph.Start()
	defer sp.End()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req GraphVerifyRequest
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, MaxBodyBytes), &req); err != nil {
		obsRejectBad.Inc()
		writeError(w, http.StatusBadRequest, sanitizeErr(err))
		return
	}
	q, err := req.build()
	if err != nil {
		obsRejectBad.Inc()
		writeError(w, http.StatusBadRequest, sanitizeErr(err))
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	rep, prov, err := verdict(ctx, s, s.modes, s.gflight, q, provComputed)
	if err != nil {
		writeError(w, statusFor(err), sanitizeErr(err))
		return
	}
	t.SetProvenance(prov)
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
	writeJSON(w, http.StatusOK, resp)
}
