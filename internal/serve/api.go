// Package serve exposes the verification engine as an HTTP JSON API with
// eight endpoints: POST /v1/verify (one routing design), POST
// /v1/verify/delta (a design perturbed by removed links or toggled
// turns), POST /v1/verify/graph (an arbitrary channel dependence graph
// in one graph mode), POST /v1/design (the Algorithm 1/2 option family
// for a channel budget), POST /v1/batch (up to maxBatch designs) and,
// for a replica ring, GET /v1/peer/lookup/{key}, GET /v1/peer/metrics
// and GET /v1/cluster/metrics.
//
// Every traced endpoint is one adapter, Server.handle, around a handler
// that only decodes, builds its query and answers it; the adapter owns
// the request counter, the trace, the serve.* phase, the POST check, the
// per-request deadline and the mapping from error to status. Every
// cdg.Report verdict (verify, delta, batch items, design options) takes
// one answer path, Server.answer: the verify-cache probe, the cluster
// route when another replica owns the key, then a singleflight group
// keyed on the cache's dual-hash identity. A flight's computation is one
// task on a bounded queue in front of a fixed worker pool (explicit
// 429/503 backpressure): the handler's goroutine submits it and waits,
// and the worker runs the engine's context-aware verify path and
// publishes the verdict to every waiter. Graph-mode verdicts take the same probe and flight on the
// mode cache.
//
// Every served verdict flows through the cached verify API
// (cdg.Cache.Lookup / cdg.Cache.Verify); the verifygate
// lint analyzer enforces that no handler reaches the uncached entry
// points directly.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ebda/internal/cdg"
	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/partstrat"
	"ebda/internal/topology"
)

// Request admission limits. They bound worst-case work per request so a
// single call cannot monopolize the worker pool: the largest admissible
// verification (a 64x64 torus) builds in well under the default
// deadline.
const (
	// MaxBodyBytes caps a request body; handlers read through
	// http.MaxBytesReader so oversized bodies fail fast.
	MaxBodyBytes = 1 << 20
	// maxDims bounds network dimensionality (the repo's designs top out
	// at 4D).
	maxDims = 4
	// minSize / maxSize bound each dimension extent.
	minSize = 2
	maxSize = 64
	// maxNodes bounds the product of sizes, the real cost driver.
	maxNodes = 4096
	// maxVCsPerDim bounds the virtual-channel count a chain may imply
	// per dimension.
	maxVCsPerDim = 8
	// maxBatch bounds /v1/batch fan-out.
	maxBatch = 64
	// maxSpecLen bounds the chain / turn-list source strings.
	maxSpecLen = 4096
	// maxDesignOptions caps how many derived options /v1/design verifies.
	maxDesignOptions = 32
	// maxDeltaLinks bounds the link removals a delta request may name: a
	// delta is a small perturbation, and a huge one is just a spelling of
	// /v1/verify on another network.
	maxDeltaLinks = 8
)

// NetworkSpec names a concrete network: a regular mesh or torus with
// explicit per-dimension sizes.
type NetworkSpec struct {
	Kind  string `json:"kind"`
	Sizes []int  `json:"sizes"`
}

// validate bounds the spec against the admission limits.
func (n NetworkSpec) validate() error {
	switch n.Kind {
	case "mesh", "torus":
	case "":
		return errors.New("network.kind is required (mesh or torus)")
	default:
		return fmt.Errorf("network.kind %q is not mesh or torus", n.Kind)
	}
	if len(n.Sizes) == 0 {
		return errors.New("network.sizes is required")
	}
	if len(n.Sizes) > maxDims {
		return fmt.Errorf("network has %d dimensions, limit %d", len(n.Sizes), maxDims)
	}
	nodes := 1
	for _, s := range n.Sizes {
		if s < minSize || s > maxSize {
			return fmt.Errorf("network size %d outside [%d, %d]", s, minSize, maxSize)
		}
		nodes *= s
	}
	if nodes > maxNodes {
		return fmt.Errorf("network has %d nodes, limit %d", nodes, maxNodes)
	}
	return nil
}

// VerifyRequest asks for one design's deadlock-freedom verdict. Exactly
// one of Chain (a partition chain, e.g. "PA[X+ X- Y-] -> PB[Y+]") or
// Turns (an explicit turn list, e.g. "X+>Y+,X+>Y-") selects the design.
type VerifyRequest struct {
	Network NetworkSpec `json:"network"`
	Chain   string      `json:"chain,omitempty"`
	Turns   string      `json:"turns,omitempty"`
	// NoUITurns excludes the Theorem-2/3 U- and I-turns from a chain's
	// turn set (ignored for Turns requests, which are already explicit).
	NoUITurns bool `json:"no_ui_turns,omitempty"`
}

// TurnCounts breaks a turn set down by kind.
type TurnCounts struct {
	Deg90 int `json:"deg90"`
	U     int `json:"u"`
	I     int `json:"i"`
}

// VerifyResponse is one design's verdict. Provenance says how the
// verdict was produced: "cache" (memoized), "computed" (this request ran
// the verification) or "coalesced" (this request shared another
// in-flight request's computation). Key is the verify cache's canonical
// 64-bit identity of the verification, in hex — two responses with equal
// keys answered the same question.
type VerifyResponse struct {
	Network    string     `json:"network"`
	Channels   int        `json:"channels"`
	Edges      int        `json:"edges"`
	Acyclic    bool       `json:"acyclic"`
	Cycle      string     `json:"cycle,omitempty"`
	Turns      TurnCounts `json:"turns"`
	Provenance string     `json:"provenance"`
	Key        string     `json:"key"`
}

// LinkSpec names one unidirectional link by its source node coordinate
// and direction, e.g. {"at": [3, 2], "dir": "X+"}.
type LinkSpec struct {
	At  []int  `json:"at"`
	Dir string `json:"dir"`
}

// DeltaRequest asks for the verdict of a base design perturbed by a
// small structural diff: removed links and/or toggled turns. The server
// answers through the retained delta workspace pool — link removals
// incrementally from the base's peel state, turn toggles by rebuilding
// on the retained channel table — and memoizes under the (base key, diff
// fingerprint) delta cache identity.
type DeltaRequest struct {
	// Base selects the unperturbed design, exactly as /v1/verify would.
	Base VerifyRequest `json:"base"`
	// BaseKey optionally pins the base verification's cache key (the hex
	// Key of a prior /v1/verify response). A mismatch against the key the
	// server derives from Base is a 400: the client's cached baseline is
	// not the design it thinks it is.
	BaseKey string `json:"base_key,omitempty"`
	// RemoveLinks lists unidirectional links to delete from the network.
	RemoveLinks []LinkSpec `json:"remove_links,omitempty"`
	// DisableTurns / EnableTurns are turn lists ("X+>Y+,...") toggled off
	// and on relative to the base turn set.
	DisableTurns string `json:"disable_turns,omitempty"`
	EnableTurns  string `json:"enable_turns,omitempty"`
}

// DeltaResponse is a delta verdict. Provenance is "cache", "coalesced",
// or "delta" (this request ran the delta verification). Key is
// the delta cache identity; BaseKey is the underlying full
// verification's identity, usable as base_key in later requests.
type DeltaResponse struct {
	Network    string `json:"network"`
	Channels   int    `json:"channels"`
	Edges      int    `json:"edges"`
	Acyclic    bool   `json:"acyclic"`
	Cycle      string `json:"cycle,omitempty"`
	Provenance string `json:"provenance"`
	Key        string `json:"key"`
	BaseKey    string `json:"base_key"`
}

// DesignRequest asks for the verified Algorithm 1/2 option family of a
// per-dimension VC budget. Network is optional; it defaults to the same
// verification meshes ebda-design uses (5x5 for 2D, 3x3x3 for 3D).
type DesignRequest struct {
	VCs     []int        `json:"vcs"`
	Network *NetworkSpec `json:"network,omitempty"`
	Max     int          `json:"max,omitempty"`
}

// DesignOption is one derived design with its verdict.
type DesignOption struct {
	Chain      string `json:"chain"`
	Channels   int    `json:"channels"`
	Acyclic    bool   `json:"acyclic"`
	Provenance string `json:"provenance"`
}

// DesignResponse lists the verified options for the budget. Derived is
// the family size before the Max cap; len(Options) is after.
type DesignResponse struct {
	Network string         `json:"network"`
	Derived int            `json:"derived"`
	Options []DesignOption `json:"options"`
}

// BatchRequest verifies several designs in one call.
type BatchRequest struct {
	Requests []VerifyRequest `json:"requests"`
}

// BatchResult is one batch entry: either a verdict or a per-item error
// with the HTTP status it would have carried as a standalone request.
type BatchResult struct {
	OK     *VerifyResponse `json:"ok,omitempty"`
	Error  string          `json:"error,omitempty"`
	Status int             `json:"status,omitempty"`
}

// BatchResponse carries one result per request, in request order.
type BatchResponse struct {
	Results []BatchResult `json:"results"`
}

// decodeStrict unmarshals one JSON value from r into v, rejecting
// unknown fields and trailing garbage so malformed clients fail loudly.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(io.LimitReader(r, MaxBodyBytes+1))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad JSON: %w", err)
	}
	if dec.More() {
		return errors.New("bad JSON: trailing data after request object")
	}
	return nil
}

// DecodeVerifyRequest parses and bounds-checks one verify request. It is
// pure decode + validation (no network is built), which makes it the
// fuzzing surface for the API.
func DecodeVerifyRequest(r io.Reader) (*VerifyRequest, error) {
	var req VerifyRequest
	if err := decodeStrict(r, &req); err != nil {
		return nil, err
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// validate bounds-checks the request without parsing the design.
func (req *VerifyRequest) validate() error {
	if err := req.Network.validate(); err != nil {
		return err
	}
	switch {
	case req.Chain != "" && req.Turns != "":
		return errors.New("use either chain or turns, not both")
	case req.Chain == "" && req.Turns == "":
		return errors.New("one of chain or turns is required")
	case len(req.Chain) > maxSpecLen:
		return fmt.Errorf("chain is %d bytes, limit %d", len(req.Chain), maxSpecLen)
	case len(req.Turns) > maxSpecLen:
		return fmt.Errorf("turns is %d bytes, limit %d", len(req.Turns), maxSpecLen)
	}
	return nil
}

// builtVerify is a decoded request resolved against interned topology,
// with its cache query: the design's identity is hashed once, and that
// key serves the cache probe, the flight, shard routing and the
// response.
type builtVerify struct {
	net *topology.Network
	vcs cdg.VCConfig
	ts  *core.TurnSet
	q   cdg.Query[cdg.Report]
}

// build parses the design and resolves the network through the interning
// cache, applies the semantic limits that need the parsed form (every
// class within the network's dimensions, VC budget per dimension), and
// only then extracts the turn set.
func (req *VerifyRequest) build(nets *networkCache) (*builtVerify, error) {
	net := nets.get(req.Network.Kind, req.Network.Sizes)
	b := &builtVerify{net: net}
	var (
		chain   *core.Chain
		turns   []core.Turn
		classes []channel.Class
		err     error
	)
	if req.Chain != "" {
		if chain, err = core.ParseChain(req.Chain); err != nil {
			return nil, fmt.Errorf("chain: %w", err)
		}
		classes = chain.Channels()
	} else {
		if turns, err = core.ParseTurnList(req.Turns); err != nil {
			return nil, fmt.Errorf("turns: %w", err)
		}
		classes = make([]channel.Class, 0, 2*len(turns))
		for _, t := range turns {
			classes = append(classes, t.From, t.To)
		}
	}
	// A class in a dimension the network lacks would escape the VC
	// budget below, and its turns would still cost their extraction.
	for _, c := range classes {
		if int(c.Dim) >= net.Dims() || (c.Par != channel.Any && int(c.PDim) >= net.Dims()) {
			return nil, fmt.Errorf("class %s names a dimension the %d-dimensional network lacks", c, net.Dims())
		}
	}
	b.vcs = cdg.VCConfigFor(net.Dims(), classes)
	for d := 0; d < net.Dims(); d++ {
		if v := b.vcs.VCs(channel.Dim(d)); v > maxVCsPerDim {
			return nil, fmt.Errorf("design implies %d VCs in dimension %d, limit %d", v, d, maxVCsPerDim)
		}
	}
	if chain != nil {
		opts := core.DefaultTurnOptions
		opts.UITurns = !req.NoUITurns
		b.ts = chain.Turns(opts)
	} else {
		b.ts = core.NewTurnSet()
		b.ts.Declare(classes...)
		for _, t := range turns {
			b.ts.Add(t.From, t.To, core.ByTheorem1)
		}
	}
	b.q = cdg.TurnSetQuery(net, b.vcs, b.ts)
	return b, nil
}

// DecodeDeltaRequest parses and bounds-checks one delta request. Like
// DecodeVerifyRequest it is pure decode + validation.
func DecodeDeltaRequest(r io.Reader) (*DeltaRequest, error) {
	var req DeltaRequest
	if err := decodeStrict(r, &req); err != nil {
		return nil, err
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	return &req, nil
}

// validate bounds-checks the request without resolving the network.
func (req *DeltaRequest) validate() error {
	if err := req.Base.validate(); err != nil {
		return fmt.Errorf("base: %w", err)
	}
	if len(req.RemoveLinks) == 0 && req.DisableTurns == "" && req.EnableTurns == "" {
		return errors.New("delta names no change: remove_links, disable_turns or enable_turns required")
	}
	if len(req.RemoveLinks) > maxDeltaLinks {
		return fmt.Errorf("delta removes %d links, limit %d", len(req.RemoveLinks), maxDeltaLinks)
	}
	for i, l := range req.RemoveLinks {
		if len(l.At) == 0 || len(l.At) > maxDims {
			return fmt.Errorf("remove_links[%d].at has %d coordinates, want 1..%d", i, len(l.At), maxDims)
		}
		for _, c := range l.At {
			if c < 0 || c >= maxSize {
				return fmt.Errorf("remove_links[%d].at coordinate %d outside [0, %d)", i, c, maxSize)
			}
		}
		if l.Dir == "" {
			return fmt.Errorf("remove_links[%d].dir is required", i)
		}
	}
	if len(req.DisableTurns) > maxSpecLen {
		return fmt.Errorf("disable_turns is %d bytes, limit %d", len(req.DisableTurns), maxSpecLen)
	}
	if len(req.EnableTurns) > maxSpecLen {
		return fmt.Errorf("enable_turns is %d bytes, limit %d", len(req.EnableTurns), maxSpecLen)
	}
	if len(req.BaseKey) > 16 {
		return fmt.Errorf("base_key %q is not a 64-bit hex key", req.BaseKey)
	}
	return nil
}

// build resolves the base design, checks base_key against its key, and
// lowers the diff into the delta query. It returns the query and the
// base key; every error is a client error.
func (req *DeltaRequest) build(nets *networkCache) (cdg.Query[cdg.Report], uint64, error) {
	var none cdg.Query[cdg.Report]
	b, err := req.Base.build(nets)
	if err != nil {
		return none, 0, err
	}
	baseKey := b.q.Key
	if req.BaseKey != "" {
		if want, err := strconv.ParseUint(req.BaseKey, 16, 64); err != nil || want != baseKey {
			return none, 0, errors.New("base_key " + req.BaseKey + " does not match the base design (key " +
				strconv.FormatUint(baseKey, 16) + ")")
		}
	}
	diff, err := req.buildDiff(b)
	if err != nil {
		return none, 0, err
	}
	return cdg.DeltaQuery(b.net, b.vcs, b.ts, diff), baseKey, nil
}

// parseDir splits a direction spec ("X+", "Y-") into dimension and sign.
func parseDir(s string) (channel.Dim, channel.Sign, error) {
	if len(s) < 2 {
		return 0, 0, fmt.Errorf("malformed direction %q (want e.g. X+)", s)
	}
	var sign channel.Sign
	switch s[len(s)-1] {
	case '+':
		sign = channel.Plus
	case '-':
		sign = channel.Minus
	default:
		return 0, 0, fmt.Errorf("direction %q does not end in + or -", s)
	}
	d, err := channel.ParseDim(s[:len(s)-1])
	if err != nil {
		return 0, 0, err
	}
	return d, sign, nil
}

// buildDiff lowers the request's diff against the resolved base design.
// Link and turn lists are deduplicated here so the canonical diff
// fingerprint (which is duplicate-sensitive) identifies the set, not the
// spelling.
func (req *DeltaRequest) buildDiff(b *builtVerify) (cdg.Diff, error) {
	var diff cdg.Diff
	seenLinks := make(map[topology.Link]bool, len(req.RemoveLinks))
	for i, spec := range req.RemoveLinks {
		if len(spec.At) != b.net.Dims() {
			return cdg.Diff{}, fmt.Errorf("remove_links[%d].at has %d coordinates, network has %d dimensions",
				i, len(spec.At), b.net.Dims())
		}
		if !b.net.InBounds(topology.Coord(spec.At)) {
			return cdg.Diff{}, fmt.Errorf("remove_links[%d].at %v outside the network", i, spec.At)
		}
		d, sign, err := parseDir(spec.Dir)
		if err != nil {
			return cdg.Diff{}, fmt.Errorf("remove_links[%d]: %w", i, err)
		}
		link, ok := b.net.FindLink(b.net.ID(spec.At), d, sign)
		if !ok {
			return cdg.Diff{}, fmt.Errorf("remove_links[%d]: no link from %v along %s", i, spec.At, spec.Dir)
		}
		if !seenLinks[link] {
			seenLinks[link] = true
			diff.RemoveLinks = append(diff.RemoveLinks, link)
		}
	}
	var err error
	if diff.DisableTurns, err = parseTurnToggles(req.DisableTurns); err != nil {
		return cdg.Diff{}, fmt.Errorf("disable_turns: %w", err)
	}
	if diff.EnableTurns, err = parseTurnToggles(req.EnableTurns); err != nil {
		return cdg.Diff{}, fmt.Errorf("enable_turns: %w", err)
	}
	return diff, nil
}

// parseTurnToggles parses a turn list and drops duplicate pairs.
func parseTurnToggles(s string) ([]core.Turn, error) {
	if s == "" {
		return nil, nil
	}
	turns, err := core.ParseTurnList(s)
	if err != nil {
		return nil, err
	}
	seen := make(map[[2]channel.Class]bool, len(turns))
	out := turns[:0]
	for _, t := range turns {
		k := [2]channel.Class{t.From, t.To}
		if !seen[k] {
			seen[k] = true
			out = append(out, t)
		}
	}
	return out, nil
}

// validate bounds-checks a design request.
func (req *DesignRequest) validate() error {
	if len(req.VCs) == 0 {
		return errors.New("vcs is required")
	}
	if len(req.VCs) > maxDims {
		return fmt.Errorf("vcs names %d dimensions, limit %d", len(req.VCs), maxDims)
	}
	for d, v := range req.VCs {
		if v < 1 || v > maxVCsPerDim {
			return fmt.Errorf("vcs[%d] = %d outside [1, %d]", d, v, maxVCsPerDim)
		}
	}
	if req.Max < 0 {
		return errors.New("max must be >= 0")
	}
	if req.Network != nil {
		if err := req.Network.validate(); err != nil {
			return err
		}
		if req.Network.Kind != "mesh" {
			return errors.New("design verification runs on meshes")
		}
		if len(req.Network.Sizes) != len(req.VCs) {
			return fmt.Errorf("network has %d dimensions but vcs names %d",
				len(req.Network.Sizes), len(req.VCs))
		}
	}
	return nil
}

// designNet resolves the verification mesh: the explicit spec when
// given, otherwise the per-dimension defaults ebda-design uses.
func (req *DesignRequest) designNet(nets *networkCache) *topology.Network {
	if req.Network != nil {
		return nets.get(req.Network.Kind, req.Network.Sizes)
	}
	return nets.get("mesh", partstrat.DefaultMeshSizes(len(req.VCs)))
}

// sanitizeErr trims an error for the response body: single line, capped
// length, no internal prefixes beyond the failing stage.
func sanitizeErr(err error) string {
	msg := err.Error()
	if i := strings.IndexByte(msg, '\n'); i >= 0 {
		msg = msg[:i]
	}
	const maxLen = 256
	if len(msg) > maxLen {
		msg = msg[:maxLen]
	}
	return msg
}
