package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"ebda/internal/cdg"
	"ebda/internal/graphio"
	"ebda/internal/serve"
)

// The oracle derives sampled verdicts again in-process, through code
// paths the server does not answer them with, and compares.

// checkAnswers re-derives every kept response and returns how many
// verdicts it checked, or an error naming the mismatches.
func checkAnswers(answers []answer) (int, error) {
	o := verifyOracle{}
	checked, bad := 0, 0
	var first error
	for _, a := range answers {
		n, err := o.checkAnswer(a)
		checked += n
		if err != nil {
			bad++
			if first == nil {
				first = err
			}
		}
	}
	if bad > 0 {
		return checked, fmt.Errorf("%d of %d responses disagree with the oracle; first: %w", bad, len(answers), first)
	}
	return checked, nil
}

// verifyOracle memoizes the derived verdict of each design, which
// verify_hot asks for many times.
type verifyOracle map[*design]serve.VerifyResponse

// checkAnswer checks one response and returns how many verdicts it held.
func (o verifyOracle) checkAnswer(a answer) (int, error) {
	r := a.req
	switch {
	case r.graph != nil:
		return 1, checkGraph(r, a.body)
	case r.delta != nil:
		return 1, checkDelta(r.delta, a.body)
	case r.path == pathBatch:
		var resp serve.BatchResponse
		if err := json.Unmarshal(a.body, &resp); err != nil {
			return 0, err
		}
		if len(resp.Results) != len(r.designs) {
			return 0, fmt.Errorf("batch of %d answered %d results", len(r.designs), len(resp.Results))
		}
		for i, item := range resp.Results {
			if item.OK == nil {
				return i, fmt.Errorf("batch item %d: %s", i, item.Error)
			}
			if err := o.checkVerify(r.designs[i], *item.OK); err != nil {
				return i + 1, err
			}
		}
		return len(r.designs), nil
	default:
		var resp serve.VerifyResponse
		if err := json.Unmarshal(a.body, &resp); err != nil {
			return 0, err
		}
		return 1, o.checkVerify(r.designs[0], resp)
	}
}

// checkVerify compares a verdict with the one derived for its design:
// network, channel and edge counts, acyclicity and, for a cyclic design,
// the cycle.
func (o verifyOracle) checkVerify(d *design, got serve.VerifyResponse) error {
	want, ok := o[d]
	if !ok {
		var err error
		if want, err = deriveVerify(d); err != nil {
			return err
		}
		o[d] = want
	}
	if got.Network != want.Network || got.Channels != want.Channels || got.Edges != want.Edges ||
		got.Acyclic != want.Acyclic || (!want.Acyclic && got.Cycle != want.Cycle) {
		return fmt.Errorf("%q: served %s, %d channels, %d edges, acyclic %t, cycle %q; oracle %s, %d, %d, %t, %q",
			d.chain+d.turns, got.Network, got.Channels, got.Edges, got.Acyclic, got.Cycle,
			want.Network, want.Channels, want.Edges, want.Acyclic, want.Cycle)
	}
	return nil
}

// deriveVerify rebuilds the design's dependency graph and decides
// acyclicity with Tarjan's SCCs: acyclic exactly when no component has
// two channels or a self-loop. A cyclic design's cycle is the one an
// uncached verification reports.
func deriveVerify(d *design) (serve.VerifyResponse, error) {
	net := d.network()
	ts, vcs, err := d.turnSet()
	if err != nil {
		return serve.VerifyResponse{}, err
	}
	g := cdg.BuildFromTurnSetJobs(net, vcs, ts, 0)
	want := serve.VerifyResponse{Network: net.String(), Channels: g.NumChannels(), Edges: g.NumEdges(), Acyclic: len(g.SCCs()) == 0}
	if !want.Acyclic {
		want.Cycle = cdg.FormatCycle(cdg.VerifyTurnSetJobs(net, vcs, ts, 0).Cycle)
	}
	return want, nil
}

// checkDelta compares a delta verdict byte for byte with a from-scratch
// verification of the faulty network under the toggled turn set.
func checkDelta(r *deltaReq, body []byte) error {
	var got serve.DeltaResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	diff, err := r.diff()
	if err != nil {
		return err
	}
	ts := r.base.ts.Clone()
	for _, t := range r.disable {
		ts.Remove(t.From, t.To)
	}
	for _, t := range r.enable {
		ts.Add(t.From, t.To, t.Source)
	}
	want := cdg.VerifyTurnSetJobs(r.base.net.WithoutLinks(diff.RemoveLinks), r.base.vcs, ts, 0)
	exp := serve.DeltaResponse{Network: want.Network, Channels: want.Channels, Edges: want.Edges, Acyclic: want.Acyclic}
	if !want.Acyclic {
		exp.Cycle = cdg.FormatCycle(want.Cycle)
	}
	got.Provenance, got.Key, got.BaseKey = "", "", ""
	return sameJSON("delta", got, exp)
}

// checkGraph parses the request body again and compares the verdict with
// an uncached mode verification.
func checkGraph(r *request, body []byte) error {
	var got serve.GraphVerifyResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	var req serve.GraphVerifyRequest
	if err := decodeStrict(r.body, &req); err != nil {
		return err
	}
	g, err := parseGraph(&req)
	if err != nil {
		return err
	}
	mode, err := cdg.ParseGraphMode(req.Mode)
	if err != nil {
		return err
	}
	rep := cdg.VerifyModeJobs(g.Edges, mode, g.Inputs, g.Outputs, req.Escape, 0)
	exp := serve.GraphVerifyResponse{
		Mode: rep.Mode.String(), Channels: rep.Nodes, Edges: rep.Edges, OK: rep.OK, Reason: rep.Reason,
	}
	if len(rep.Path) > 0 {
		exp.Path = cdg.FormatNodeChain(rep.Path)
	}
	if len(rep.Cycle) > 0 {
		exp.Cycle = cdg.FormatNodeChain(rep.Cycle)
	}
	if rep.OK && mode == cdg.ModeSubrel {
		exp.SubrelationEdges = len(rep.Subrelation)
	}
	got.Provenance, got.Key = "", ""
	return sameJSON("graph "+req.Mode, got, exp)
}

// parseGraph builds the graph a /v1/verify/graph request carries.
func parseGraph(req *serve.GraphVerifyRequest) (*graphio.Graph, error) {
	if req.Graph != nil {
		return graphio.New(req.Graph.Channels, req.Graph.Inputs, req.Graph.Outputs, req.Graph.Edges)
	}
	return graphio.ParseCDG([]byte(req.CDG))
}

func sameJSON(what string, got, want any) error {
	a, err := json.Marshal(got)
	if err != nil {
		return err
	}
	b, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if !bytes.Equal(a, b) {
		return fmt.Errorf("%s: served %s, oracle %s", what, a, b)
	}
	return nil
}

// decodeStrict decodes one JSON value the way the server does: unknown
// fields and trailing data are errors.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after the request object")
	}
	return nil
}
