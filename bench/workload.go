package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"

	"ebda/internal/cdg"
	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/partstrat"
	"ebda/internal/serve"
	"ebda/internal/topology"
)

// The workloads, in BENCHMARK.json order. README.md records why each
// one was chosen and which layer it loads.
const (
	wlCold  = "verify_cold"
	wlHot   = "verify_hot"
	wlDelta = "verify_delta"
	wlGraph = "graph_modes"
)

var workloadNames = []string{wlCold, wlHot, wlDelta, wlGraph}

// API paths the workloads call.
const (
	pathVerify = "/v1/verify"
	pathBatch  = "/v1/batch"
	pathDelta  = "/v1/verify/delta"
	pathGraph  = "/v1/verify/graph"
)

// request is one generated API call: what the server receives, the
// status it must answer with, and what the oracle needs to derive the
// verdict again in-process.
type request struct {
	path    string
	body    []byte
	status  int
	designs []*design // /v1/verify: one; /v1/batch: one per item
	delta   *deltaReq
	graph   *graphReq
}

// generator yields an endless request stream that depends only on the
// seed it was built from.
type generator interface{ next() *request }

// streamSeed derives an independent seed for one named stream of a run,
// so the measured stream, the traced replay and the reference inputs
// never share requests.
func streamSeed(seed int64, stream string) int64 {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return int64(h.Sum64() ^ uint64(seed)*0x9e3779b97f4a7c15)
}

// newWorkload returns a workload's priming requests — answered by every
// server launch before set-up ends — and its request stream.
func newWorkload(name string, seed int64) ([]*request, generator, error) {
	switch name {
	case wlCold:
		return nil, newColdGen(seed), nil
	case wlHot:
		g := newHotGen(seed)
		return g.designs, g, nil
	case wlDelta:
		g := newDeltaGen(seed)
		return g.prime(), g, nil
	case wlGraph:
		return nil, newGraphGen(seed), nil
	}
	return nil, nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// design is one /v1/verify request: a mesh or torus plus either a
// partition chain or an explicit turn list.
type design struct {
	kind  string
	sizes []int
	chain string
	noUI  bool
	turns string
}

func (d *design) spec() serve.VerifyRequest {
	return serve.VerifyRequest{
		Network:   serve.NetworkSpec{Kind: d.kind, Sizes: d.sizes},
		Chain:     d.chain,
		Turns:     d.turns,
		NoUITurns: d.noUI,
	}
}

func (d *design) network() *topology.Network {
	if d.kind == "torus" {
		return topology.NewTorus(d.sizes...)
	}
	return topology.NewMesh(d.sizes...)
}

// turnSet derives the design's turn set and VC configuration the way the
// server does for the same request.
func (d *design) turnSet() (*core.TurnSet, cdg.VCConfig, error) {
	dims := len(d.sizes)
	if d.chain != "" {
		chain, err := core.ParseChain(d.chain)
		if err != nil {
			return nil, nil, err
		}
		opts := core.DefaultTurnOptions
		opts.UITurns = !d.noUI
		return chain.Turns(opts), cdg.VCConfigFor(dims, chain.Channels()), nil
	}
	turns, err := core.ParseTurnList(d.turns)
	if err != nil {
		return nil, nil, err
	}
	ts := core.NewTurnSet()
	for _, t := range turns {
		ts.Add(t.From, t.To, core.ByTheorem1)
	}
	return ts, cdg.VCConfigFor(dims, ts.Classes()), nil
}

// channels returns the number of channels of the design's dependency
// graph: one per link and virtual channel of the link's dimension.
func (d *design) channels() int {
	_, vcs, err := d.turnSet()
	if err != nil {
		panic(fmt.Sprintf("design %+v: %v", d, err)) // drawn from valid pools
	}
	n := 0
	for _, l := range d.network().Links() {
		n += vcs.VCs(l.Dim)
	}
	return n
}

func verifyRequest(d *design) *request {
	body, err := json.Marshal(d.spec())
	if err != nil {
		panic(err) // plain data; Marshal cannot fail on it
	}
	return &request{path: pathVerify, body: body, status: 200, designs: []*design{d}}
}

// chainPools holds the EbDa chains verify_cold draws from: every chain
// partstrat derives for small per-dimension VC budgets, 2D and 3D.
var chainPools = sync.OnceValue(func() [2][]string {
	derive := func(budgets ...[]int) []string {
		var out []string
		for _, vcs := range budgets {
			chains, err := partstrat.Derive(partstrat.ArrangementFor(vcs))
			if err != nil {
				panic(fmt.Sprintf("partstrat.Derive(%v): %v", vcs, err)) // fixed inputs
			}
			for _, c := range chains {
				out = append(out, c.PlainString())
			}
		}
		return out
	}
	return [2][]string{
		derive([]int{1, 1}, []int{1, 2}, []int{2, 1}, []int{2, 2}),
		derive([]int{1, 1, 1}, []int{1, 2, 1}, []int{2, 1, 1}),
	}
})

// coldGen draws designs no earlier request named: 2D meshes and tori of
// 16..64 per side and 10% 3D meshes of 8..16 per side; 75% EbDa chains
// (with and without U/I-turns) and 25% random subsets of 90° turns. A
// design whose verify-cache key was drawn before is skipped, so every
// request misses the cache.
type coldGen struct {
	rng  *rand.Rand
	seen map[uint64]bool
	// memo caches parsed turn sets by design spec; chains repeat often.
	memo map[string]builtTurns
}

type builtTurns struct {
	ts  *core.TurnSet
	vcs cdg.VCConfig
}

func newColdGen(seed int64) *coldGen {
	return &coldGen{
		rng:  rand.New(rand.NewSource(seed)),
		seen: map[uint64]bool{},
		memo: map[string]builtTurns{},
	}
}

func (g *coldGen) next() *request {
	for {
		d := g.draw()
		memoKey := fmt.Sprintf("%d|%s|%t|%s", len(d.sizes), d.chain, d.noUI, d.turns)
		bt, ok := g.memo[memoKey]
		if !ok {
			ts, vcs, err := d.turnSet()
			if err != nil {
				panic(fmt.Sprintf("cold design %+v: %v", d, err)) // drawn from valid pools
			}
			bt = builtTurns{ts, vcs}
			g.memo[memoKey] = bt
		}
		key, _ := cdg.VerifyKey(d.network(), bt.vcs, bt.ts)
		if g.seen[key] {
			continue
		}
		g.seen[key] = true
		return verifyRequest(d)
	}
}

func (g *coldGen) draw() *design {
	rng := g.rng
	d := &design{kind: "mesh"}
	dims := 2
	if rng.Intn(10) == 0 {
		dims = 3
		d.sizes = []int{8 + rng.Intn(9), 8 + rng.Intn(9), 8 + rng.Intn(9)}
	} else {
		if rng.Intn(4) == 0 {
			d.kind = "torus"
		}
		d.sizes = []int{16 + rng.Intn(49), 16 + rng.Intn(49)}
	}
	if rng.Intn(4) == 0 {
		d.turns = randomTurns(rng, dims)
		return d
	}
	pool := chainPools()[dims-2]
	d.chain = pool[rng.Intn(len(pool))]
	d.noUI = rng.Intn(2) == 0
	return d
}

// randomTurns returns a non-empty random subset of the 90° turns between
// the single-VC channel classes of a dims-dimensional network.
func randomTurns(rng *rand.Rand, dims int) string {
	signs := []channel.Sign{channel.Plus, channel.Minus}
	var picked []string
	for len(picked) == 0 {
		for a := 0; a < dims; a++ {
			for b := 0; b < dims; b++ {
				if a == b {
					continue
				}
				for _, sa := range signs {
					for _, sb := range signs {
						if rng.Intn(2) == 0 {
							from := channel.New(channel.Dim(a), sa).Plain()
							to := channel.New(channel.Dim(b), sb).Plain()
							picked = append(picked, from+">"+to)
						}
					}
				}
			}
		}
	}
	return strings.Join(picked, ",")
}

// hotDesigns is the size of verify_hot's repeated design set.
const hotDesigns = 64

// hotBatch is the number of designs in one verify_hot batch request.
const hotBatch = 8

// invalidBodies are rejected by decode or validation; the server must
// answer each with a 400.
var invalidBodies = []string{
	`{"network":{"kind":"ring","sizes":[8,8]},"chain":"PA[X+]"}`,
	`{"network":{"kind":"mesh","sizes":[1,8]},"chain":"PA[X+]"}`,
	`{"network":{"kind":"mesh","sizes":[8,8]},"chain":"PA[X+]","turns":"X+>Y+"}`,
	`{"network":{"kind":"mesh","sizes":[8,8]},"chain":"PA[Q*]"}`,
	`{"network":{"kind":"mesh","sizes":[8,8]}}`,
	`not json at all`,
}

// hotChannels is the mean channel count of a cold design, and
// hotTolerance how far the mean of a verify_hot design set may stray from
// it. Drawn freely, the means of 64 designs differ by ±6% between seeds,
// and with them the work per request and channels_per_s.
const (
	hotChannels  = 9300
	hotTolerance = 0.02
)

// hotGen repeats a fixed set of designs drawn from the cold generator:
// 75% single verifies, 20% batches and 5% invalid bodies. The set is
// redrawn until its mean channel count is within hotTolerance of
// hotChannels, so that every seed asks for about the same work.
type hotGen struct {
	rng     *rand.Rand
	designs []*request
}

func newHotGen(seed int64) *hotGen {
	cold := newColdGen(streamSeed(seed, "hot-designs"))
	g := &hotGen{rng: rand.New(rand.NewSource(seed))}
	for {
		designs, total := make([]*request, hotDesigns), 0
		for i := range designs {
			designs[i] = cold.next()
			total += designs[i].designs[0].channels()
		}
		if math.Abs(float64(total)/hotDesigns/hotChannels-1) <= hotTolerance {
			g.designs = designs
			return g
		}
	}
}

func (g *hotGen) next() *request {
	switch p := g.rng.Intn(100); {
	case p < 75:
		return g.designs[g.rng.Intn(len(g.designs))]
	case p < 95:
		var batch serve.BatchRequest
		r := &request{path: pathBatch, status: 200}
		for i := 0; i < hotBatch; i++ {
			d := g.designs[g.rng.Intn(len(g.designs))].designs[0]
			batch.Requests = append(batch.Requests, d.spec())
			r.designs = append(r.designs, d)
		}
		body, err := json.Marshal(batch)
		if err != nil {
			panic(err) // plain data; Marshal cannot fail on it
		}
		r.body = body
		return r
	default:
		return &request{path: pathVerify, body: []byte(invalidBodies[g.rng.Intn(len(invalidBodies))]), status: 400}
	}
}

// deltaBaseDesigns are the designs verify_delta perturbs: two chains,
// one and two VCs, each on a 32x32 and a 64x64 mesh.
var deltaBaseDesigns = []design{
	{kind: "mesh", sizes: []int{32, 32}, chain: "PA[X+ X- Y-] -> PB[Y+]"},
	{kind: "mesh", sizes: []int{32, 32}, chain: "PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]"},
	{kind: "mesh", sizes: []int{64, 64}, chain: "PA[X+ X- Y-] -> PB[Y+]"},
	{kind: "mesh", sizes: []int{64, 64}, chain: "PA[X1+ Y1+ Y1-] -> PB[X1- Y2+ Y2-]"},
}

// deltaBase is one retained base design with its pinned cache key and
// the turns a diff may toggle.
type deltaBase struct {
	idx    int // position in the generator's base list
	design *design
	net    *topology.Network
	vcs    cdg.VCConfig
	ts     *core.TurnSet
	key    string
	// present lists the base's turns (disable candidates); absent lists
	// class pairs the base does not permit (enable candidates).
	present, absent []core.Turn
}

func newDeltaBases() []*deltaBase {
	var out []*deltaBase
	for i := range deltaBaseDesigns {
		d := &deltaBaseDesigns[i]
		ts, vcs, err := d.turnSet()
		if err != nil {
			panic(fmt.Sprintf("delta base %q: %v", d.chain, err)) // fixed inputs
		}
		b := &deltaBase{idx: i, design: d, net: d.network(), vcs: vcs, ts: ts}
		key, _ := cdg.VerifyKey(b.net, vcs, ts)
		b.key = strconv.FormatUint(key, 16)
		for _, t := range ts.Turns() {
			if t.From != t.To {
				b.present = append(b.present, t)
			}
		}
		classes := ts.Classes()
		for _, from := range classes {
			for _, to := range classes {
				if from != to && !ts.Allows(from, to) {
					b.absent = append(b.absent, core.Turn{From: from, To: to, Source: core.ByTheorem1})
				}
			}
		}
		out = append(out, b)
	}
	return out
}

// deltaReq is one /v1/verify/delta request against a base.
type deltaReq struct {
	base    *deltaBase
	links   []serve.LinkSpec
	disable []core.Turn
	enable  []core.Turn
}

func (r *deltaReq) spec() serve.DeltaRequest {
	return serve.DeltaRequest{
		Base:         r.base.design.spec(),
		BaseKey:      r.base.key,
		RemoveLinks:  r.links,
		DisableTurns: turnList(r.disable),
		EnableTurns:  turnList(r.enable),
	}
}

// diff lowers the request to the engine's diff, as the server does.
func (r *deltaReq) diff() (cdg.Diff, error) {
	var d cdg.Diff
	net := r.base.net
	for _, l := range r.links {
		dim, err := channel.ParseDim(l.Dir[:len(l.Dir)-1])
		if err != nil {
			return cdg.Diff{}, err
		}
		sign := channel.Plus
		if l.Dir[len(l.Dir)-1] == '-' {
			sign = channel.Minus
		}
		link, ok := net.FindLink(net.ID(topology.Coord(l.At)), dim, sign)
		if !ok {
			return cdg.Diff{}, fmt.Errorf("no link from %v along %s", l.At, l.Dir)
		}
		d.RemoveLinks = append(d.RemoveLinks, link)
	}
	d.DisableTurns = r.disable
	d.EnableTurns = r.enable
	return d, nil
}

// toggles reports whether the diff toggles turns (otherwise it only
// removes links).
func (r *deltaReq) toggles() bool { return len(r.disable) > 0 }

func turnList(ts []core.Turn) string {
	parts := make([]string, len(ts))
	for i, t := range ts {
		parts[i] = t.From.String() + ">" + t.To.String()
	}
	return strings.Join(parts, ",")
}

// deltaGen draws diffs no earlier request named: half remove 1..4
// interior links; half disable a turn of the base, in half of those also
// enable a class pair the base lacks, and always remove one link.
type deltaGen struct {
	rng   *rand.Rand
	bases []*deltaBase
	seen  map[string]bool
}

func newDeltaGen(seed int64) *deltaGen {
	return &deltaGen{rng: rand.New(rand.NewSource(seed)), bases: newDeltaBases(), seen: map[string]bool{}}
}

// prime returns one request per base, so every server launch retains a
// delta workspace for each base before measuring.
func (g *deltaGen) prime() []*request {
	out := make([]*request, len(g.bases))
	for i, b := range g.bases {
		out[i] = g.fresh(b)
	}
	return out
}

func (g *deltaGen) next() *request {
	return g.fresh(g.bases[g.rng.Intn(len(g.bases))])
}

// fresh draws diffs against base b until one is new.
func (g *deltaGen) fresh(b *deltaBase) *request {
	for {
		r := g.draw(b)
		body, err := json.Marshal(r.spec())
		if err != nil {
			panic(err) // plain data; Marshal cannot fail on it
		}
		// Links are distinct and sorted and at most one turn is toggled
		// each way, so two bodies are equal exactly when the diffs are.
		if g.seen[string(body)] {
			continue
		}
		g.seen[string(body)] = true
		return &request{path: pathDelta, body: body, status: 200, delta: r}
	}
}

func (g *deltaGen) draw(b *deltaBase) *deltaReq {
	rng := g.rng
	r := &deltaReq{base: b}
	if rng.Intn(2) == 0 {
		r.links = g.interiorLinks(b, 1+rng.Intn(4))
		return r
	}
	r.disable = []core.Turn{b.present[rng.Intn(len(b.present))]}
	if rng.Intn(2) == 0 {
		r.enable = []core.Turn{b.absent[rng.Intn(len(b.absent))]}
	}
	r.links = g.interiorLinks(b, 1)
	return r
}

// interiorLinks draws k distinct links leaving interior nodes, sorted so
// the same set always renders the same body.
func (g *deltaGen) interiorLinks(b *deltaBase, k int) []serve.LinkSpec {
	dirs := []string{"X+", "X-", "Y+", "Y-"}
	n := b.design.sizes[0]
	seen := map[string]bool{}
	var out []serve.LinkSpec
	for len(out) < k {
		l := serve.LinkSpec{At: []int{1 + g.rng.Intn(n-2), 1 + g.rng.Intn(n-2)}, Dir: dirs[g.rng.Intn(len(dirs))]}
		id := fmt.Sprint(l.At, l.Dir)
		if !seen[id] {
			seen[id] = true
			out = append(out, l)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, c := out[i], out[j]
		if a.At[0] != c.At[0] {
			return a.At[0] < c.At[0]
		}
		if a.At[1] != c.At[1] {
			return a.At[1] < c.At[1]
		}
		return a.Dir < c.Dir
	})
	return out
}

// graphBase is one dragonfly channel graph, edges sorted by (from, to).
type graphBase struct {
	df     topology.Dragonfly
	vcs    int
	cg     topology.ChannelGraph
	escape []int // VC1 local channels plus globals, for 2-VC graphs
}

func newGraphBase(df topology.Dragonfly, vcs int) *graphBase {
	cg, err := df.ChannelGraph(vcs)
	if err != nil {
		panic(fmt.Sprintf("dragonfly %+v: %v", df, err)) // drawn inside the valid range
	}
	sort.Slice(cg.Edges, func(i, j int) bool {
		a, b := cg.Edges[i], cg.Edges[j]
		return a[0] < b[0] || (a[0] == b[0] && a[1] < b[1])
	})
	b := &graphBase{df: df, vcs: vcs, cg: cg}
	if vcs == 2 {
		for g := 0; g < df.Groups; g++ {
			for i := 0; i < df.Routers; i++ {
				for j := 0; j < df.Routers; j++ {
					if i != j {
						b.escape = append(b.escape, df.Local(g, i, j, 1, vcs))
					}
				}
			}
			for h := 0; h < df.Groups; h++ {
				if h != g {
					b.escape = append(b.escape, df.Global(g, h, vcs))
				}
			}
		}
		sort.Ints(b.escape)
	}
	return b
}

// graphReq is one /v1/verify/graph request: a base graph with some
// edges dropped, a mode, and the encoding the body uses.
type graphReq struct {
	base *graphBase
	mode cdg.GraphMode
	drop []int // ascending indices into base.cg.Edges
	text bool
}

// edges returns the base edges minus the dropped ones, still sorted.
func (r *graphReq) edges() [][2]int {
	out := make([][2]int, 0, len(r.base.cg.Edges)-len(r.drop))
	next := 0
	for i, e := range r.base.cg.Edges {
		if next < len(r.drop) && r.drop[next] == i {
			next++
			continue
		}
		out = append(out, e)
	}
	return out
}

func (r *graphReq) escape() []int {
	if r.mode != cdg.ModeEscape {
		return nil
	}
	return r.base.escape
}

// edgeSet builds the request's graph as the engine sees it.
func (r *graphReq) edgeSet() *cdg.EdgeSet {
	es := cdg.NewEdgeSet(r.base.cg.Channels)
	for _, e := range r.edges() {
		es.AddEdge(e[0], e[1])
	}
	return es
}

// render encodes the request body: the graph as the structured JSON
// form or the constellation text form, then mode and escape set.
func (r *graphReq) render() []byte {
	cg := r.base.cg
	edges := r.edges()
	b := make([]byte, 0, 64+12*len(edges)+8*(len(cg.Inputs)+len(cg.Outputs)))
	ids := func(b []byte, xs []int, sep byte) []byte {
		for i, x := range xs {
			if i > 0 {
				b = append(b, sep)
			}
			b = strconv.AppendInt(b, int64(x), 10)
		}
		return b
	}
	if r.text {
		const nl = `\n` // a newline inside the JSON string
		b = append(b, `{"cdg":"`...)
		b = strconv.AppendInt(b, int64(cg.Channels), 10)
		b = append(b, nl...)
		b = append(ids(b, cg.Inputs, ' '), nl...)
		b = append(ids(b, cg.Outputs, ' '), nl...)
		for i, e := range edges {
			if i == 0 || edges[i-1][0] != e[0] {
				if i > 0 {
					b = append(b, nl...)
				}
				b = strconv.AppendInt(b, int64(e[0]), 10)
			}
			b = append(b, ' ')
			b = strconv.AppendInt(b, int64(e[1]), 10)
		}
		b = append(b, nl+`"`...)
	} else {
		b = append(b, `{"graph":{"channels":`...)
		b = strconv.AppendInt(b, int64(cg.Channels), 10)
		b = append(b, `,"inputs":[`...)
		b = append(ids(b, cg.Inputs, ','), `],"outputs":[`...)
		b = append(ids(b, cg.Outputs, ','), `],"edges":[`...)
		for i, e := range edges {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '[')
			b = strconv.AppendInt(b, int64(e[0]), 10)
			b = append(b, ',')
			b = strconv.AppendInt(b, int64(e[1]), 10)
			b = append(b, ']')
		}
		b = append(b, "]}"...)
	}
	b = append(b, `,"mode":"`+r.mode.String()+`"`...)
	if esc := r.escape(); esc != nil {
		b = append(b, `,"escape":[`...)
		b = append(ids(b, esc, ','), ']')
	}
	return append(b, '}')
}

// maxGraphBases bounds graphGen's cache of built dragonfly graphs.
const maxGraphBases = 128

// graphGen draws dragonfly CDGs with 3..17 groups, 2..8 routers, 1..4
// terminals and 1..2 VCs, drops 0..8 edges, and asks for loop (40%),
// liveness (30%), subrel (15%) or escape (15%, always 2 VCs), half as
// JSON and half as constellation text. A request whose mode-cache key
// was drawn before is skipped.
type graphGen struct {
	rng   *rand.Rand
	bases map[[4]int]*graphBase
	seen  map[uint64]bool
}

func newGraphGen(seed int64) *graphGen {
	return &graphGen{rng: rand.New(rand.NewSource(seed)), bases: map[[4]int]*graphBase{}, seen: map[uint64]bool{}}
}

func (g *graphGen) next() *request {
	for {
		r := g.draw()
		cg := r.base.cg
		key, _ := cdg.ModeKey(r.edgeSet(), r.mode, cg.Inputs, cg.Outputs, r.escape())
		if g.seen[key] {
			continue
		}
		g.seen[key] = true
		return &request{path: pathGraph, body: r.render(), status: 200, graph: r}
	}
}

func (g *graphGen) draw() *graphReq {
	rng := g.rng
	df := topology.Dragonfly{Groups: 3 + rng.Intn(15), Routers: 2 + rng.Intn(7), Terminals: 1 + rng.Intn(4)}
	r := &graphReq{}
	switch p := rng.Intn(100); {
	case p < 40:
		r.mode = cdg.ModeLoop
	case p < 70:
		r.mode = cdg.ModeLiveness
	case p < 85:
		r.mode = cdg.ModeSubrel
	default:
		r.mode = cdg.ModeEscape
	}
	vcs := 1 + rng.Intn(2)
	if r.mode == cdg.ModeEscape {
		vcs = 2
	}
	id := [4]int{df.Groups, df.Routers, df.Terminals, vcs}
	if r.base = g.bases[id]; r.base == nil {
		if len(g.bases) >= maxGraphBases {
			g.bases = map[[4]int]*graphBase{}
		}
		r.base = newGraphBase(df, vcs)
		g.bases[id] = r.base
	}
	n := len(r.base.cg.Edges)
	picked := map[int]bool{}
	for k := rng.Intn(9); len(picked) < k && len(picked) < n; {
		picked[rng.Intn(n)] = true
	}
	for i := range picked {
		r.drop = append(r.drop, i)
	}
	sort.Ints(r.drop)
	r.text = rng.Intn(2) == 0
	return r
}

// lockedGen serialises a generator for the concurrent load clients.
type lockedGen struct {
	mu  sync.Mutex
	gen generator
}

func (l *lockedGen) next() *request {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.gen.next()
}
