package cdg

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/obs/trace"
	"ebda/internal/topology"
)

// This file implements delta verification: re-checking a base design
// perturbed by removed links and toggled turns on the retained channel
// table, without rebinding it.
//
// The key observation is that the peel's final state is canonical. After
// kahnPeel, indeg[i] is 0 for every peeled channel and, for residual
// channels, the number of in-edges arriving from the residual — a function
// of the graph alone, independent of peel order. Removing a link only
// removes edges, so the residual can only shrink: retiring the masked
// channels from a canonical state and peeling on from there (the removal
// cascade) reaches exactly the state a from-scratch peel of the perturbed
// graph computes, touching no more channels than a full peel would. A
// link-only diff runs that cascade on the retained base state and never
// writes the adjacency rows.
//
// Toggling a turn can add edges, and an added edge may close a cycle
// inside the peeled region, which in-degree bookkeeping cannot see. So a
// toggle diff rebuilds: the toggled turn set's edges go through the one
// turn-edge kernel into a second row set, a full peel gives their
// canonical state, and the same removal cascade applies the diff's links.

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
// may not be a same-class continuation: both constraints keep the class
// set — and the VC configuration it implies — identical to the base, so
// the toggled design fits the retained channel table.
//
// Name overrides the resulting Report.Network. When empty the report is
// named after the base network, with "-faulty" appended if RemoveLinks is
// non-empty — matching what a fresh verify of the WithoutLinks-derived
// network reports.
type Diff struct {
	RemoveLinks  []topology.Link
	DisableTurns []core.Turn
	EnableTurns  []core.Turn
	Name         string
}

// Empty reports whether the diff perturbs nothing.
func (d Diff) Empty() bool {
	return len(d.RemoveLinks) == 0 && !d.toggles()
}

// toggles reports whether the diff toggles any turn.
func (d Diff) toggles() bool {
	return len(d.DisableTurns) > 0 || len(d.EnableTurns) > 0
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

// DeltaWorkspace retains one base verification — the built dependency
// graph and the canonical final state of the base peel — so perturbed
// variants of that design re-verify on the retained channel table instead
// of binding a new one.
//
// A link-only diff reads the base rows and peel state and writes neither.
// A toggle diff builds its own rows into a second row set, swapped in for
// the call. Either way the workspace holds the unperturbed base between
// calls and diffs never compound. Like Workspace, a DeltaWorkspace runs
// one verification at a time; use a DeltaPool to share instances across
// goroutines.
type DeltaWorkspace struct {
	ws *Workspace
	ts *core.TurnSet

	baseKey   uint64
	baseCheck uint64
	baseRep   Report
	// baseFin is the canonical final state of the base peel: 0 for peeled
	// channels, the in-residual in-degree for residual channels. baseIn is
	// every channel's in-degree in the base graph.
	baseFin, baseIn []int32

	// Per-call scratch, reused across diffs. The peel state of a diff
	// lives in ws.st.
	masked    []bool
	maskedIdx []int32
	leaves    []int32
	into      []int32
	// rows is the second CSR adjacency toggle diffs build into.
	rows csr
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
	dw := &DeltaWorkspace{
		ws:        ws,
		ts:        ts,
		baseKey:   key,
		baseCheck: check,
		baseRep:   rep,
		baseFin:   append([]int32(nil), ws.st.indeg...),
		baseIn:    ws.g.adj.inDegrees(nil),
		masked:    make([]bool, ws.g.NumChannels()),
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
// the diff and at Kahn round boundaries of a toggle diff's peel.
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
	defer dw.unmask()
	g, st := dw.ws.g, &dw.ws.st
	psp := tc.StartSpan("cdg.patch")
	err := dw.maskLinks(diff.RemoveLinks)
	var mod *core.TurnSet
	if err == nil && diff.toggles() {
		mod, err = dw.toggled(diff)
	}
	if err != nil {
		psp.End()
		return Report{}, err
	}
	if mod != nil {
		// Build the toggled design into the second row set; the channel
		// table and the base rows stay as they are.
		g.adj, dw.rows = dw.rows, g.adj
		defer func() { g.adj, dw.rows = dw.rows, g.adj }()
		g.adj.reset(g.NumChannels())
		g.AddTurnEdges(mod)
	}
	psp.SetInt("masked", int64(len(dw.maskedIdx)))
	psp.End()
	rsp := tc.StartSpan("cdg.repeel")
	defer rsp.End()
	var in []int32 // the toggled rows' in-degrees are not kept
	if mod != nil {
		obsDeltaFallbacks.Inc()
		if _, err := kahnPeel(ctx, &g.adj, st); err != nil {
			return Report{}, err
		}
	} else {
		obsDeltaIncremental.Inc()
		st.indeg = append(st.indeg[:0], dw.baseFin...)
		in = dw.baseIn
	}
	rep := Report{
		Network:  name,
		Channels: g.NumChannels() - len(dw.maskedIdx),
		Edges:    g.NumEdges() - dw.retireMasked(st.indeg, in),
		Acyclic:  true,
	}
	for _, d := range st.indeg {
		if d > 0 {
			rep.Acyclic = false
			break
		}
	}
	if !rep.Acyclic {
		obsResidualDFS.Inc()
		rep.Cycle = g.channelsOf(findCycleResidual(&g.adj, st))
	}
	return rep, nil
}

// maskLinks validates the removed links against the base network and
// marks every concrete channel riding one (dw.masked / dw.maskedIdx).
func (dw *DeltaWorkspace) maskLinks(links []topology.Link) error {
	g := dw.ws.g
	for _, l := range links {
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
	return nil
}

// unmask clears the link masks of the last diff.
func (dw *DeltaWorkspace) unmask() {
	for _, ci := range dw.maskedIdx {
		dw.masked[ci] = false
	}
	dw.maskedIdx = dw.maskedIdx[:0]
}

// toggled validates the diff's turn toggles against the base turn set and
// returns the toggled copy.
func (dw *DeltaWorkspace) toggled(diff Diff) (*core.TurnSet, error) {
	ts := dw.ts
	mod := ts.Clone()
	for _, t := range diff.DisableTurns {
		if t.From == t.To {
			return nil, fmt.Errorf("%w: cannot disable same-class continuation of %s", ErrBadDiff, t.From)
		}
		if !mod.Remove(t.From, t.To) {
			return nil, fmt.Errorf("%w: disabled turn %s>%s is not in the base set", ErrBadDiff, t.From, t.To)
		}
	}
	for _, t := range diff.EnableTurns {
		if t.From == t.To {
			return nil, fmt.Errorf("%w: cannot enable same-class continuation of %s", ErrBadDiff, t.From)
		}
		if !ts.Declared(t.From) || !ts.Declared(t.To) {
			return nil, fmt.Errorf("%w: enabled turn %s>%s leaves the base class set", ErrBadDiff, t.From, t.To)
		}
		if mod.Allows(t.From, t.To) {
			return nil, fmt.Errorf("%w: enabled turn %s>%s is already permitted", ErrBadDiff, t.From, t.To)
		}
		mod.Add(t.From, t.To, t.Source)
	}
	return mod, nil
}

// retireMasked is the removal cascade. fin must be the canonical peel
// state of the graph's current rows with every channel present, and in
// their in-degrees, or nil to count a masked channel's in-edges over its
// tail's in-list (a toggle diff's fresh rows); on return fin is the
// canonical state with the masked channels' edges removed. A masked channel keeps no edges, so it peels,
// and every channel whose last in-edge from the residual that takes away
// peels after it. The rows are not modified: the masked channels' edges
// stay in them, so a residual channel may still list a masked successor,
// which then reads as peeled. It returns the number of edges the masks
// remove.
func (dw *DeltaWorkspace) retireMasked(fin, in []int32) int {
	g := dw.ws.g
	removed := 0
	leaves := dw.leaves[:0]
	for _, ci := range dw.maskedIdx {
		removed += len(g.adj.row(ci))
		if in != nil {
			removed += int(in[ci])
		} else {
			dw.into = g.appendInto(dw.into[:0], topology.NodeID(g.tail[ci]))
			for _, p := range dw.into {
				if g.adj.has(p, ci) {
					removed++
				}
			}
		}
		// An edge between two masked channels left one and entered the
		// other: count it once.
		for _, s := range g.adj.row(ci) {
			if dw.masked[s] {
				removed--
			}
		}
		if fin[ci] > 0 {
			fin[ci] = 0
			leaves = append(leaves, ci)
		}
	}
	for len(leaves) > 0 {
		v := leaves[len(leaves)-1]
		leaves = leaves[:len(leaves)-1]
		for _, s := range g.adj.row(v) {
			if fin[s] > 0 {
				if fin[s]--; fin[s] == 0 {
					leaves = append(leaves, s)
				}
			}
		}
	}
	dw.leaves = leaves
	return removed
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
