package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"testing"

	"ebda/internal/cdg"
)

// FuzzDecodeVerifyRequest drives the API's decode + validation surface
// with arbitrary bodies. Properties: never panic, never accept a request
// that violates the admission limits, and accepted requests survive a
// marshal/decode round trip (the wire form is canonical).
func FuzzDecodeVerifyRequest(f *testing.F) {
	seeds := []string{
		`{"network":{"kind":"mesh","sizes":[6,6]},"chain":"PA[X+ X- Y-] -> PB[Y+]"}`,
		`{"network":{"kind":"torus","sizes":[4,4]},"turns":"X+>Y+,X+>Y-"}`,
		`{"network":{"kind":"mesh","sizes":[3,3,3]},"chain":"PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]","no_ui_turns":true}`,
		`{"network":{"kind":"mesh","sizes":[64,64]},"chain":"PA[X+]"}`,
		`{"network":{"kind":"ring","sizes":[8]},"chain":"PA[X+]"}`,
		`{"network":{"kind":"mesh","sizes":[1,1]},"turns":"X+>Y+"}`,
		`{"network":{"kind":"mesh","sizes":[4,4]},"chain":"PA[X+]","turns":"X+>Y+"}`,
		`{"network":{"kind":"mesh","sizes":[4,4]}}`,
		`{}`,
		``,
		`not json`,
		`[1,2,3]`,
		`{"network":{"kind":"mesh","sizes":[4,4]},"chain":"PA[X+ X- Y-] -> PB[Y+]"} trailing`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	nets := newNetworkCache()
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeVerifyRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted requests are within the admission envelope.
		if err := req.Network.validate(); err != nil {
			t.Fatalf("accepted request fails network validation: %v", err)
		}
		if (req.Chain == "") == (req.Turns == "") {
			t.Fatalf("accepted request has chain=%q turns=%q", req.Chain, req.Turns)
		}
		// The wire form round-trips.
		wire, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not re-marshal: %v", err)
		}
		again, err := DecodeVerifyRequest(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%s", err, wire)
		}
		if !reflect.DeepEqual(again, req) {
			t.Fatalf("round trip changed the request: %+v vs %+v", req, again)
		}
		// build may reject the design (parse errors are data-dependent)
		// but must not panic, and network construction stays within the
		// validated envelope.
		if b, err := req.build(nets); err == nil {
			if b.net.Nodes() > maxNodes {
				t.Fatalf("built network exceeds node cap: %d", b.net.Nodes())
			}
		}
	})
}

// FuzzDecodeDeltaRequest drives the delta API's decode + validation
// surface and, for small bases, the engine behind it. Properties: never
// panic; accepted requests stay within the admission limits and their
// wire form is a marshal/decode fixed point; building the base and
// lowering the diff never panic; and on bases of at most 512 channels a
// lowered diff either fails with cdg.ErrBadDiff or answers exactly what a
// from-scratch verification of the perturbed design answers.
func FuzzDecodeDeltaRequest(f *testing.F) {
	mesh := `{"network":{"kind":"mesh","sizes":[4,4]},"chain":"PA[X+ X- Y-] -> PB[Y+]"}`
	cyclic := `{"network":{"kind":"torus","sizes":[4,3]},"turns":"X+>Y+,Y+>X-,X->Y-,Y->X+"}`
	vc := `{"network":{"kind":"mesh","sizes":[5,4]},"chain":"PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]"}`
	seeds := []string{
		`{"base":` + mesh + `,"remove_links":[{"at":[1,2],"dir":"X+"}]}`,
		`{"base":` + mesh + `,"remove_links":[{"at":[1,2],"dir":"X+"},{"at":[1,2],"dir":"X+"},{"at":[0,0],"dir":"Y+"}]}`,
		`{"base":` + mesh + `,"disable_turns":"X+>Y+","enable_turns":"Y+>X+"}`,
		`{"base":` + mesh + `,"disable_turns":"X+>Y+","enable_turns":"X+>Y+","remove_links":[{"at":[3,0],"dir":"Y+"}]}`,
		`{"base":` + mesh + `,"disable_turns":"Y+>X+"}`,
		`{"base":` + mesh + `,"enable_turns":"X+>Z+"}`,
		`{"base":` + cyclic + `,"remove_links":[{"at":[3,1],"dir":"X+"}],"disable_turns":"X+>Y+"}`,
		`{"base":` + vc + `,"base_key":"0","remove_links":[{"at":[2,2],"dir":"Y-"}],"enable_turns":"Y2+>X1+"}`,
		`{"base":` + mesh + `,"remove_links":[{"at":[3,3],"dir":"X+"}]}`,
		`{"base":` + mesh + `,"remove_links":[{"at":[0],"dir":"X+"}]}`,
		`{"base":` + mesh + `,"remove_links":[]}`,
		`{"base":` + mesh + `}`,
		`{"base":{"network":{"kind":"mesh","sizes":[64,64]},"chain":"PA[X+]"},"remove_links":[{"at":[0,0],"dir":"X+"}]}`,
		`{}`,
		``,
		`not json`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	nets := newNetworkCache()
	cache := &cdg.VerifyCache{}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeDeltaRequest(bytes.NewReader(data))
		if err != nil {
			return
		}
		if len(req.RemoveLinks) > maxDeltaLinks || len(req.DisableTurns) > maxSpecLen || len(req.EnableTurns) > maxSpecLen ||
			len(req.Base.Chain) > maxSpecLen || len(req.Base.Turns) > maxSpecLen {
			t.Fatalf("accepted request exceeds the admission limits: %+v", req)
		}
		wire, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not re-marshal: %v", err)
		}
		again, err := DecodeDeltaRequest(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%s", err, wire)
		}
		if wire2, err := json.Marshal(again); err != nil || !bytes.Equal(wire2, wire) {
			t.Fatalf("round trip changed the request:\n%s\n%s", wire, wire2)
		}
		b, err := req.Base.build(nets)
		if err != nil {
			return
		}
		diff, err := req.buildDiff(b)
		if err != nil {
			return
		}
		channels := 0
		for _, l := range b.net.Links() {
			channels += b.vcs.VCs(l.Dim)
		}
		if channels > 512 {
			return
		}
		got, err := cache.Verify(context.Background(), cdg.DeltaQuery(b.net, b.vcs, b.ts, diff))
		if err != nil {
			if !errors.Is(err, cdg.ErrBadDiff) {
				t.Fatalf("delta failed without ErrBadDiff: %v", err)
			}
			return
		}
		mod := b.ts.Clone()
		for _, tn := range diff.DisableTurns {
			mod.Remove(tn.From, tn.To)
		}
		for _, tn := range diff.EnableTurns {
			mod.Add(tn.From, tn.To, tn.Source)
		}
		net := b.net
		if len(diff.RemoveLinks) > 0 {
			net = net.WithoutLinks(diff.RemoveLinks)
		}
		want := cdg.VerifyTurnSet(net, b.vcs, mod)
		if got.Network != want.Network || got.Channels != want.Channels || got.Edges != want.Edges ||
			got.Acyclic != want.Acyclic || cdg.FormatCycle(got.Cycle) != cdg.FormatCycle(want.Cycle) {
			t.Fatalf("delta %s\nfresh %s", got, want)
		}
	})
}
