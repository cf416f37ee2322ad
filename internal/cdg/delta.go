package cdg

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"sync"

	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/obs/trace"
	"ebda/internal/topology"
)

// This file implements incremental (delta) verification: re-checking a
// slightly perturbed design without rebuilding the dependency graph or
// re-running the full Kahn peel.
//
// The key observation is that the peel's final state is canonical. After
// kahnPeel, indeg[i] is 0 for every peeled channel and, for residual
// channels, the number of in-edges arriving from the residual — a function
// of the graph alone, independent of peel order. Delta verification
// therefore maintains that canonical state directly: apply
// the edge patches, then run join/leave cascades that grow and shrink the
// residual exactly as a from-scratch peel would have computed it. The one
// blind spot is an added edge whose source was peeled in the base — it can
// close a new cycle entirely inside the previously peeled region, which
// in-degree bookkeeping cannot see — so those edges trigger a bounded
// reachability probe and, if it finds (or cannot exclude) such a cycle, a
// full re-peel of the patched graph. The fallback also covers oversized
// diffs: when the dirty region exceeds deltaBudget the incremental path
// would not pay for itself, and a full peel of the patched graph is both
// cheap enough and trivially canonical.

// ErrBadDiff wraps every diff-validation failure, so serving layers can
// map it to a client error (400) without string matching.
var ErrBadDiff = errors.New("cdg: invalid delta diff")

// Diff describes a perturbation of a base verification.
//
// RemoveLinks lists unidirectional physical links made faulty; every
// concrete channel riding a listed link is masked out of the graph along
// with its dependency edges, mirroring topology.WithoutLinks. Links are
// identified by source node, dimension and sign (To and Wrap are ignored);
// use topology.FindLink or SingleLinkDiff to build canonical values.
//
// DisableTurns and EnableTurns toggle transitions of the base turn set.
// Endpoint classes must already be declared by the base design and a turn
// may not be a same-class continuation: both constraints keep the interned
// class table — and the VC configuration it implies — identical to the
// base, which is what lets the retained workspace be patched in place.
//
// AddEdges and RemoveEdges are raw dependency-edge patches by channel
// index for callers that computed their own dependency diff (fault models
// outside the turn formalism). Removed edges must exist; added edges must
// not, and may not touch a masked channel.
//
// Name overrides the resulting Report.Network. When empty the report is
// named after the base network, with "-faulty" appended if RemoveLinks is
// non-empty — matching what a fresh verify of the WithoutLinks-derived
// network reports.
type Diff struct {
	RemoveLinks  []topology.Link
	DisableTurns []core.Turn
	EnableTurns  []core.Turn
	AddEdges     [][2]int32
	RemoveEdges  [][2]int32
	Name         string
}

// Empty reports whether the diff perturbs nothing.
func (d Diff) Empty() bool {
	return len(d.RemoveLinks) == 0 &&
		len(d.DisableTurns) == 0 && len(d.EnableTurns) == 0 &&
		len(d.AddEdges) == 0 && len(d.RemoveEdges) == 0
}

// SingleLinkDiff returns the diff that removes the one link leaving from
// in direction (d, sign) on the network, or an ErrBadDiff error when that
// link does not exist.
func SingleLinkDiff(net *topology.Network, from topology.NodeID, d channel.Dim, sign channel.Sign) (Diff, error) {
	l, ok := net.FindLink(from, d, sign)
	if !ok {
		return Diff{}, fmt.Errorf("%w: no link from n%d along %s%s", ErrBadDiff, from, d, sign)
	}
	return Diff{RemoveLinks: []topology.Link{l}}, nil
}

// Fingerprint returns two independent 64-bit digests of the diff,
// canonical across element order: per-element digests are seeded by
// category and combine by addition, like TurnSet.Fingerprint. The digest
// covers the Name override, so two diffs that produce differently-labelled
// reports never share a cache entry. Callers should not list the same
// element twice (a duplicate changes the digest without changing the
// semantics); the serving layer deduplicates before building a Diff.
func (d Diff) Fingerprint() (uint64, uint64) {
	const (
		linkSeedA    = 0x8ebc6af09c88c6e3
		linkSeedB    = 0x589965cc75374cc3
		disableSeedA = 0x1d8e4e27c47d124f
		disableSeedB = 0xeb44accab455d165
		enableSeedA  = 0x9c6e6877736c46e3
		enableSeedB  = 0xca9b0c407576b44d
		addSeedA     = 0x2f61c9dd1eaa8d73
		addSeedB     = 0x83eb27934a62cd5f
		rmSeedA      = 0x6b8e21c1f3c863e5
		rmSeedB      = 0xf4c1e93b1a7d2b39
		nameSeedA    = 0x5851f42d4c957f2d
		nameSeedB    = 0x14057b7ef767814f
	)
	var h1, h2 uint64
	for _, l := range d.RemoveLinks {
		e := uint64(uint32(int32(l.From)))
		e = e*1000003 + uint64(uint32(int32(l.Dim)))
		e = e*1000003 + uint64(uint32(int32(l.Sign)))
		h1 += mix64(e ^ linkSeedA)
		h2 += mix64(e ^ linkSeedB)
	}
	pair := func(t core.Turn) uint64 {
		return turnClassCode(t.From)*0x100000001b3 ^ turnClassCode(t.To)
	}
	for _, t := range d.DisableTurns {
		h1 += mix64(pair(t) ^ disableSeedA)
		h2 += mix64(pair(t) ^ disableSeedB)
	}
	for _, t := range d.EnableTurns {
		h1 += mix64(pair(t) ^ enableSeedA)
		h2 += mix64(pair(t) ^ enableSeedB)
	}
	for _, e := range d.AddEdges {
		c := uint64(uint32(e[0]))<<32 | uint64(uint32(e[1]))
		h1 += mix64(c ^ addSeedA)
		h2 += mix64(c ^ addSeedB)
	}
	for _, e := range d.RemoveEdges {
		c := uint64(uint32(e[0]))<<32 | uint64(uint32(e[1]))
		h1 += mix64(c ^ rmSeedA)
		h2 += mix64(c ^ rmSeedB)
	}
	// Name is a single ordered string: fold it sequentially, then mix the
	// result in once.
	hn := uint64(len(d.Name))
	for i := 0; i < len(d.Name); i++ {
		hn = hn*0x100000001b3 + uint64(d.Name[i])
	}
	h1 += mix64(hn ^ nameSeedA)
	h2 += mix64(hn ^ nameSeedB)
	return h1, h2
}

// turnClassCode packs a channel class for diff fingerprinting, mirroring
// core's classCode packing.
func turnClassCode(c channel.Class) uint64 {
	e := uint64(uint32(int32(c.Dim)))
	e = e*1000003 + uint64(uint32(int32(c.Sign)))
	e = e*1000003 + uint64(uint32(int32(c.VC)))
	e = e*1000003 + uint64(uint32(int32(c.PDim)))
	e = e*1000003 + uint64(uint32(int32(c.Par)))
	return e
}

// reportName resolves the diff's Report.Network label against the base
// network's label.
func (d Diff) reportName(base string) string {
	if d.Name != "" {
		return d.Name
	}
	if len(d.RemoveLinks) > 0 {
		// Match topology.WithoutLinks: "8x8 mesh" -> "8x8 mesh-faulty".
		return base + "-faulty"
	}
	return base
}

// deltaBudget bounds the dirty region an incremental re-peel may touch
// before falling back to a full peel of the patched graph; nc is the
// channel count. It is a variable so tests can force either path.
var deltaBudget = func(nc int) int { return nc/4 + 32 }

// savedRow is one journal entry of the adjacency patch: the pristine
// content of row idx lives at arena[off:off+n].
type savedRow struct {
	idx    int32
	off, n int
}

// DeltaWorkspace retains one base verification — the built dependency
// graph and the canonical final state of the base peel — so perturbed
// variants of that design re-verify by patching the structures in place
// instead of rebuilding them.
//
// Every VerifyDiff call patches the adjacency rows (journaling pristine
// row contents), maintains the canonical peel state incrementally, renders
// the report, and rolls every mutation back, so the workspace always holds
// the unperturbed base between calls and diffs never compound. Like
// Workspace, a DeltaWorkspace runs one verification at a time; use a
// DeltaPool to share instances across goroutines.
type DeltaWorkspace struct {
	ws *Workspace
	ts *core.TurnSet

	baseKey   uint64
	baseCheck uint64
	baseRep   Report
	baseEdges int
	// baseFin is the canonical final state of the base peel: 0 for peeled
	// channels, the in-residual in-degree for residual channels.
	baseFin []int32

	// Per-call scratch, reused across diffs.
	st        acyclicState // fallback peel + residual-DFS scratch
	fin       []int32
	masked    []bool
	maskedIdx []int32
	rmOps     [][2]int32
	addOps    [][2]int32
	decs      []int32
	queue     []int32
	visited   []uint32
	visEpoch  uint32
	rowMark   []uint32
	rowEpoch  uint32
	saved     []savedRow
	arena     []int32
	// Per class list k of the graph's sigTable: from[k] holds a toggled
	// turn's from-class, touched[k*S+s] a toggled turn into signature s.
	from, touched []bool
}

// NewDeltaWorkspace builds the base graph, runs the base verification and
// retains its state for incremental re-verification.
func NewDeltaWorkspace(net *topology.Network, vcs VCConfig, ts *core.TurnSet) (*DeltaWorkspace, error) {
	key, check := verifyKey(net, vcs, ts)
	return newDeltaWorkspace(context.Background(), key, check, net, vcs, ts)
}

// NewDeltaWorkspaceCtx is NewDeltaWorkspace with a deadline: cancellation
// returns ctx's error and no workspace. The int argument is ignored;
// bench/ calls this signature.
func NewDeltaWorkspaceCtx(ctx context.Context, net *topology.Network, vcs VCConfig, ts *core.TurnSet, _ int) (*DeltaWorkspace, error) {
	key, check := verifyKey(net, vcs, ts)
	return newDeltaWorkspace(ctx, key, check, net, vcs, ts)
}

// newDeltaWorkspace is NewDeltaWorkspaceCtx for a base whose VerifyKey
// identity the caller already holds.
func newDeltaWorkspace(ctx context.Context, key, check uint64, net *topology.Network, vcs VCConfig, ts *core.TurnSet) (*DeltaWorkspace, error) {
	ws := NewWorkspace(net, vcs)
	rep, err := ws.verify(ctx, ts)
	if err != nil {
		return nil, err
	}
	nc := ws.g.NumChannels()
	dw := &DeltaWorkspace{
		ws:        ws,
		ts:        ts,
		baseKey:   key,
		baseCheck: check,
		baseRep:   rep,
		baseEdges: ws.g.edges,
		baseFin:   append([]int32(nil), ws.st.indeg...),
		fin:       make([]int32, nc),
		masked:    make([]bool, nc),
		visited:   make([]uint32, nc),
		rowMark:   make([]uint32, nc),
	}
	return dw, nil
}

// BaseReport returns the base verification's report.
func (dw *DeltaWorkspace) BaseReport() Report { return dw.baseRep }

// BaseKey returns the cache identity (key, check) of the base
// verification, as computed by VerifyKey.
func (dw *DeltaWorkspace) BaseKey() (uint64, uint64) { return dw.baseKey, dw.baseCheck }

// Graph exposes the retained base graph. Between VerifyDiff calls it holds
// the unperturbed base; callers must not mutate it.
func (dw *DeltaWorkspace) Graph() *Graph { return dw.ws.g }

// VerifyDiffJobs is VerifyDiff. The int argument is ignored; bench/ calls
// this signature.
func (dw *DeltaWorkspace) VerifyDiffJobs(diff Diff, _ int) (Report, error) {
	return dw.verifyDiff(context.Background(), diff)
}

// VerifyDiffCtx is VerifyDiff with a deadline. The int argument is
// ignored; bench/ calls this signature.
func (dw *DeltaWorkspace) VerifyDiffCtx(ctx context.Context, diff Diff, _ int) (Report, error) {
	return dw.verifyDiff(ctx, diff)
}

// VerifyDiff verifies the base design perturbed by the diff and returns
// the same Report a from-scratch verification of the perturbed design
// would produce: identical Network/Channels/Edges/Acyclic and an identical
// cycle witness under FormatCycle. (For link-removal diffs the witness's
// Channel.Index values reflect the base channel numbering rather than the
// derived network's dense renumbering; every formatted representation is
// unaffected, because channel order is preserved.) Invalid diffs return
// an error wrapping ErrBadDiff. The workspace is restored to the base
// state before returning, on every path.
func (dw *DeltaWorkspace) VerifyDiff(diff Diff) (Report, error) {
	return dw.verifyDiff(context.Background(), diff)
}

// verifyDiff is VerifyDiff honouring ctx: cancellation is observed before
// the patch and at Kahn round boundaries of a full re-peel.
func (dw *DeltaWorkspace) verifyDiff(ctx context.Context, diff Diff) (Report, error) {
	if err := ctx.Err(); err != nil {
		obsVerifyCancelled.Inc()
		return Report{}, err
	}
	tc := trace.FromContext(ctx)
	dsp := tc.StartSpan("cdg.delta")
	defer dsp.End()
	sp := phaseDelta.Start()
	defer sp.End()
	obsDeltaVerifies.Inc()
	name := diff.reportName(dw.baseRep.Network)
	if diff.Empty() {
		rep := dw.baseRep
		rep.Network = name
		return rep, nil
	}
	defer dw.rollback()
	psp := tc.StartSpan("cdg.patch")
	if err := dw.planDiff(diff); err != nil {
		psp.End()
		return Report{}, err
	}
	dw.applyOps()
	psp.SetInt("removed", int64(len(dw.rmOps)))
	psp.SetInt("added", int64(len(dw.addOps)))
	psp.End()
	rsp := tc.StartSpan("cdg.repeel")
	rep, err := dw.repeel(ctx)
	rsp.End()
	if err != nil {
		return Report{}, err
	}
	rep.Network = name
	return rep, nil
}

// planDiff validates the diff against the base design and lowers it to
// sorted, deduplicated edge operations (dw.rmOps, dw.addOps) plus the set
// of masked channels (dw.masked / dw.maskedIdx). Nothing is mutated yet.
func (dw *DeltaWorkspace) planDiff(diff Diff) error {
	g := dw.ws.g
	dw.rmOps = dw.rmOps[:0]
	dw.addOps = dw.addOps[:0]
	// Link removals mask whole channels.
	for _, l := range diff.RemoveLinks {
		if !g.net.HasLink(l.From, l.Dim, l.Sign) {
			return fmt.Errorf("%w: no link from n%d along %s%s", ErrBadDiff, l.From, l.Dim, l.Sign)
		}
		for vc := 1; vc <= g.vcs.VCs(l.Dim); vc++ {
			ch, ok := g.FindChannel(l.From, l.Dim, l.Sign, vc)
			if !ok {
				return fmt.Errorf("%w: no channel from n%d along %s%s vc %d", ErrBadDiff, l.From, l.Dim, l.Sign, vc)
			}
			if !dw.masked[ch.Index] {
				dw.masked[ch.Index] = true
				dw.maskedIdx = append(dw.maskedIdx, int32(ch.Index))
			}
		}
	}
	// A masked channel loses all its dependency edges: its successor row,
	// and the edges from its (unmasked) predecessors. Predecessors are the
	// channels into the masked channel's tail node; edges between two
	// masked channels are collected once, from the masked source's row.
	for _, ci := range dw.maskedIdx {
		for _, s := range g.adj[ci] {
			dw.rmOps = append(dw.rmOps, [2]int32{ci, s})
		}
		for _, p := range g.into(g.channels[ci].Link.From) {
			if dw.masked[p] {
				continue
			}
			if g.HasEdge(int(p), int(ci)) {
				dw.rmOps = append(dw.rmOps, [2]int32{p, int32(ci)})
			}
		}
	}
	if len(diff.DisableTurns)+len(diff.EnableTurns) > 0 {
		if err := dw.planTurnOps(diff); err != nil {
			return err
		}
	}
	nc := int32(len(g.channels))
	for _, e := range diff.RemoveEdges {
		if e[0] < 0 || e[0] >= nc || e[1] < 0 || e[1] >= nc {
			return fmt.Errorf("%w: edge %v out of range", ErrBadDiff, e)
		}
		if !g.HasEdge(int(e[0]), int(e[1])) {
			return fmt.Errorf("%w: removed edge %v does not exist", ErrBadDiff, e)
		}
		dw.rmOps = append(dw.rmOps, e)
	}
	for _, e := range diff.AddEdges {
		if e[0] < 0 || e[0] >= nc || e[1] < 0 || e[1] >= nc {
			return fmt.Errorf("%w: edge %v out of range", ErrBadDiff, e)
		}
		if dw.masked[e[0]] || dw.masked[e[1]] {
			return fmt.Errorf("%w: added edge %v touches a removed channel", ErrBadDiff, e)
		}
		if g.HasEdge(int(e[0]), int(e[1])) {
			return fmt.Errorf("%w: added edge %v already exists", ErrBadDiff, e)
		}
		dw.addOps = append(dw.addOps, e)
	}
	sortPairs(dw.rmOps)
	dw.rmOps = dedupePairs(dw.rmOps)
	sortPairs(dw.addOps)
	dw.addOps = dedupePairs(dw.addOps)
	if p, clash := pairsIntersect(dw.rmOps, dw.addOps); clash {
		return fmt.Errorf("%w: edge %v both added and removed", ErrBadDiff, p)
	}
	return nil
}

// planTurnOps lowers turn toggles to edge operations. Toggling the turn
// (f, t) can only change dependency edges between channel pairs where the
// in-channel instantiates class f and the out-channel class t; for each
// such pair the full pair-level relation is re-evaluated against the
// toggled matrix (a channel may instantiate several classes, and another
// class pair can keep the edge alive). Both tests are lookups in the
// graph's signature table, built once per diff for the toggled matrix.
func (dw *DeltaWorkspace) planTurnOps(diff Diff) error {
	g, ts := dw.ws.g, dw.ts
	m := ts.Matrix()
	mod := ts.Clone()
	for _, t := range diff.DisableTurns {
		if t.From == t.To {
			return fmt.Errorf("%w: cannot disable same-class continuation of %s", ErrBadDiff, t.From)
		}
		if !mod.Remove(t.From, t.To) {
			return fmt.Errorf("%w: disabled turn %s>%s is not in the base set", ErrBadDiff, t.From, t.To)
		}
	}
	for _, t := range diff.EnableTurns {
		if t.From == t.To {
			return fmt.Errorf("%w: cannot enable same-class continuation of %s", ErrBadDiff, t.From)
		}
		if !ts.Declared(t.From) || !ts.Declared(t.To) {
			return fmt.Errorf("%w: enabled turn %s>%s leaves the base class set", ErrBadDiff, t.From, t.To)
		}
		if mod.Allows(t.From, t.To) {
			return fmt.Errorf("%w: enabled turn %s>%s is already permitted", ErrBadDiff, t.From, t.To)
		}
		mod.Add(t.From, t.To, t.Source)
	}
	mm := mod.Matrix()
	if mm.NumClasses() != m.NumClasses() {
		return fmt.Errorf("%w: toggles changed the declared class set", ErrBadDiff)
	}
	g.buildSigTable(mm)
	tab := &g.tab
	n, lists := len(g.sigs), len(tab.first)
	dw.from = slices.Grow(dw.from[:0], lists)[:lists]
	dw.touched = slices.Grow(dw.touched[:0], lists*n)[:lists*n]
	clear(dw.from)
	clear(dw.touched)
	for _, turns := range [][]core.Turn{diff.DisableTurns, diff.EnableTurns} {
		for _, t := range turns {
			fi, okF := m.Index(t.From)
			ti, okT := m.Index(t.To)
			if !okF || !okT {
				return fmt.Errorf("%w: turn %s>%s class not interned", ErrBadDiff, t.From, t.To)
			}
			for k, a := range tab.first {
				if !slices.Contains(tab.list(a), int32(fi)) {
					continue
				}
				dw.from[k] = true
				for s := range g.sigs {
					if slices.Contains(tab.list(int32(s)), int32(ti)) {
						dw.touched[k*n+s] = true
					}
				}
			}
		}
	}
	for ai := range g.channels {
		ka := int(tab.id[g.sig[ai]])
		if dw.masked[ai] || !dw.from[ka] {
			continue
		}
		lo, hi := g.outRange(topology.NodeID(g.head[ai]))
		for bi := lo; bi < hi; bi++ {
			kb := ka*n + int(g.sig[bi])
			if dw.masked[bi] || !dw.touched[kb] {
				continue
			}
			had := g.HasEdge(ai, int(bi))
			switch want := tab.allow[kb]; {
			case had && !want:
				dw.rmOps = append(dw.rmOps, [2]int32{int32(ai), bi})
			case !had && want:
				dw.addOps = append(dw.addOps, [2]int32{int32(ai), bi})
			}
		}
	}
	return nil
}

// applyOps patches the adjacency rows in place, journaling the pristine
// content of every touched row so rollback restores the base graph
// exactly.
func (dw *DeltaWorkspace) applyOps() {
	g := dw.ws.g
	dw.rowEpoch++
	dw.saved = dw.saved[:0]
	dw.arena = dw.arena[:0]
	for _, op := range dw.rmOps {
		dw.saveRow(op[0])
		g.adj[op[0]] = deleteSorted(g.adj[op[0]], op[1])
	}
	for _, op := range dw.addOps {
		dw.saveRow(op[0])
		g.adj[op[0]] = insertSorted(g.adj[op[0]], op[1])
	}
	g.edges += len(dw.addOps) - len(dw.rmOps)
}

// saveRow journals row i's pristine content once per delta application.
func (dw *DeltaWorkspace) saveRow(i int32) {
	if dw.rowMark[i] == dw.rowEpoch {
		return
	}
	dw.rowMark[i] = dw.rowEpoch
	row := dw.ws.g.adj[i]
	off := len(dw.arena)
	dw.arena = append(dw.arena, row...)
	dw.saved = append(dw.saved, savedRow{idx: i, off: off, n: len(row)})
}

// rollback restores the base graph: journaled adjacency rows, the edge
// count and the mask. It is safe to call after a partial plan (empty
// journal) and always leaves the scratch lists reset.
func (dw *DeltaWorkspace) rollback() {
	g := dw.ws.g
	for _, s := range dw.saved {
		g.adj[s.idx] = append(g.adj[s.idx][:0], dw.arena[s.off:s.off+s.n]...)
	}
	dw.saved = dw.saved[:0]
	g.edges = dw.baseEdges
	for _, ci := range dw.maskedIdx {
		dw.masked[ci] = false
	}
	dw.maskedIdx = dw.maskedIdx[:0]
}

// repeel computes the canonical peel state of the patched graph — either
// incrementally from the retained base state, or by a full peel when the
// dirty region exceeds the budget or an added edge may close a cycle
// through the previously peeled region — and renders the report, whose
// Network label the caller sets.
func (dw *DeltaWorkspace) repeel(ctx context.Context) (Report, error) {
	g := dw.ws.g
	nc := len(g.channels)
	active := nc - len(dw.maskedIdx)
	budget := deltaBudget(nc)
	dirty := len(dw.rmOps) + len(dw.addOps)
	if dirty > budget {
		return dw.fullRepeel(ctx, active)
	}
	// Suspect probe: an added edge (u, v) with u peeled in the base can
	// participate in a cycle only if v reaches u in the patched graph. The
	// probe is bounded by the remaining dirty budget; exhausting it means
	// the absence of such a cycle was not established, and the full peel
	// decides.
	for _, op := range dw.addOps {
		if dw.baseFin[op[0]] != 0 {
			continue
		}
		found, visits := dw.reachable(op[1], op[0], budget-dirty)
		dirty += visits
		if found || dirty > budget {
			return dw.fullRepeel(ctx, active)
		}
	}
	obsDeltaIncremental.Inc()
	fin := dw.fin[:nc]
	copy(fin, dw.baseFin)
	// Join phase: count added edges from base-residual sources, then close
	// forward. A node whose count rises from zero joins the candidate
	// residual and contributes all its patched out-edges. Added edges whose
	// source itself joins are counted by that closure, not here.
	joins := dw.queue[:0]
	for _, op := range dw.addOps {
		if dw.baseFin[op[0]] == 0 {
			continue
		}
		if fin[op[1]] == 0 {
			fin[op[1]] = 1
			joins = append(joins, op[1])
		} else {
			fin[op[1]]++
		}
	}
	for len(joins) > 0 {
		x := joins[len(joins)-1]
		joins = joins[:len(joins)-1]
		for _, s := range g.adj[x] {
			if fin[s] == 0 {
				fin[s] = 1
				joins = append(joins, s)
			} else {
				fin[s]++
			}
		}
	}
	// Removal phase: a removed edge was counted by the base state exactly
	// when both endpoints sat in the base residual; collect those first
	// (judged on the immutable base state), then apply, queueing nodes
	// whose support drops to zero.
	dw.decs = dw.decs[:0]
	for _, op := range dw.rmOps {
		if dw.baseFin[op[0]] > 0 && dw.baseFin[op[1]] > 0 {
			dw.decs = append(dw.decs, op[1])
		}
	}
	leaves := joins[:0]
	for _, v := range dw.decs {
		if fin[v]--; fin[v] == 0 {
			leaves = append(leaves, v)
		}
	}
	// Leave phase: standard peel continuation over the patched graph.
	for len(leaves) > 0 {
		v := leaves[len(leaves)-1]
		leaves = leaves[:len(leaves)-1]
		for _, s := range g.adj[v] {
			if fin[s] > 0 {
				if fin[s]--; fin[s] == 0 {
					leaves = append(leaves, s)
				}
			}
		}
	}
	dw.queue = leaves[:0]
	rep := Report{Channels: active, Edges: g.edges, Acyclic: true}
	for i := 0; i < nc; i++ {
		if fin[i] > 0 {
			rep.Acyclic = false
			break
		}
	}
	if !rep.Acyclic {
		obsResidualDFS.Inc()
		dw.st.indeg = append(dw.st.indeg[:0], fin...)
		rep.Cycle = g.findCycleResidual(&dw.st)
	}
	return rep, nil
}

// fullRepeel is the fallback: a from-scratch Kahn peel of the patched
// graph, canonical by construction. Masked channels have no edges left,
// so they peel in the first round and the acyclicity condition stays
// peeled == NumChannels.
func (dw *DeltaWorkspace) fullRepeel(ctx context.Context, active int) (Report, error) {
	obsDeltaFallbacks.Inc()
	g := dw.ws.g
	peeled, err := g.kahnPeel(ctx, &dw.st)
	if err != nil {
		return Report{}, err
	}
	rep := Report{Channels: active, Edges: g.edges, Acyclic: peeled == len(g.channels)}
	if !rep.Acyclic {
		obsResidualDFS.Inc()
		rep.Cycle = g.findCycleResidual(&dw.st)
	}
	return rep, nil
}

// reachable reports whether target is reachable from start in the patched
// graph, visiting at most budget channels beyond the start. The second
// result is the number of channels visited; when it exceeds budget the
// search was abandoned and false means "not established".
func (dw *DeltaWorkspace) reachable(start, target int32, budget int) (bool, int) {
	if start == target {
		return true, 1
	}
	g := dw.ws.g
	dw.visEpoch++
	q := dw.queue[:0]
	q = append(q, start)
	dw.visited[start] = dw.visEpoch
	visits := 1
	for head := 0; head < len(q); head++ {
		for _, s := range g.adj[q[head]] {
			if dw.visited[s] == dw.visEpoch {
				continue
			}
			if s == target {
				dw.queue = q[:0]
				return true, visits
			}
			dw.visited[s] = dw.visEpoch
			visits++
			if visits > budget {
				dw.queue = q[:0]
				return false, visits
			}
			q = append(q, s)
		}
	}
	dw.queue = q[:0]
	return false, visits
}

// sortPairs orders edge operations by (from, to).
func sortPairs(ps [][2]int32) {
	slices.SortFunc(ps, func(a, b [2]int32) int {
		if c := cmp.Compare(a[0], b[0]); c != 0 {
			return c
		}
		return cmp.Compare(a[1], b[1])
	})
}

// dedupePairs compacts a sorted operation list in place.
func dedupePairs(ps [][2]int32) [][2]int32 {
	out := ps[:0]
	for i, p := range ps {
		if i == 0 || p != ps[i-1] {
			out = append(out, p)
		}
	}
	return out
}

// pairsIntersect returns a pair present in both sorted lists, if any.
func pairsIntersect(a, b [][2]int32) ([2]int32, bool) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return a[i], true
		case a[i][0] < b[j][0] || (a[i][0] == b[j][0] && a[i][1] < b[j][1]):
			i++
		default:
			j++
		}
	}
	return [2]int32{}, false
}

// deleteSorted removes v from the ascending row, which must contain it.
func deleteSorted(row []int32, v int32) []int32 {
	i := sort.Search(len(row), func(k int) bool { return row[k] >= v })
	copy(row[i:], row[i+1:])
	return row[:len(row)-1]
}

// deltaPoolKey identifies a retained base verification by its cache key;
// entries additionally carry the check hash, so a single-hash collision
// builds fresh instead of reusing the wrong base.
type deltaPoolKey = uint64

// DeltaPool is a goroutine-safe free list of delta workspaces keyed by
// their base verification. Get returns a retained workspace for the base
// or builds one (running the base verification); Put returns it for
// reuse. Growth is bounded like WorkspacePool: at most GOMAXPROCS idle
// workspaces per base, and an epoch flush when the number of distinct
// bases exceeds maxDeltaBases.
type DeltaPool struct {
	mu   sync.Mutex
	free map[deltaPoolKey][]*DeltaWorkspace
}

// maxDeltaBases bounds the number of distinct retained bases.
const maxDeltaBases = 32

// DefaultDeltaPool is the process-wide delta workspace pool used by the
// verification cache's delta entry points.
var DefaultDeltaPool = &DeltaPool{}

// GetCtx returns a delta workspace for the base (network, VC
// configuration, turn set), reusing a pooled one when available and
// building the base verification otherwise.
func (p *DeltaPool) GetCtx(ctx context.Context, net *topology.Network, vcs VCConfig, ts *core.TurnSet) (*DeltaWorkspace, error) {
	key, check := verifyKey(net, vcs, ts)
	return p.get(ctx, key, check, net, vcs, ts)
}

// get is GetCtx for a base whose VerifyKey identity the caller already
// holds (DeltaQuery hashes the base once for both the delta key and the
// pool).
func (p *DeltaPool) get(ctx context.Context, key, check uint64, net *topology.Network, vcs VCConfig, ts *core.TurnSet) (*DeltaWorkspace, error) {
	obsDeltaPoolGets.Inc()
	p.mu.Lock()
	list := p.free[key]
	for len(list) > 0 {
		dw := list[len(list)-1]
		list[len(list)-1] = nil
		list = list[:len(list)-1]
		if dw.baseCheck == check {
			p.free[key] = list
			p.mu.Unlock()
			obsDeltaPoolReuses.Inc()
			return dw, nil
		}
	}
	if p.free != nil {
		p.free[key] = list
	}
	p.mu.Unlock()
	return newDeltaWorkspace(ctx, key, check, net, vcs, ts)
}

// Put returns a workspace to the pool. The caller must not use it (or its
// Graph) afterwards.
func (p *DeltaPool) Put(dw *DeltaWorkspace) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.free == nil {
		p.free = make(map[deltaPoolKey][]*DeltaWorkspace)
	}
	if _, ok := p.free[dw.baseKey]; !ok && len(p.free) >= maxDeltaBases {
		p.free = make(map[deltaPoolKey][]*DeltaWorkspace)
	}
	if list := p.free[dw.baseKey]; len(list) < runtime.GOMAXPROCS(0) {
		p.free[dw.baseKey] = append(list, dw)
	}
}
