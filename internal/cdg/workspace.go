package cdg

import (
	"context"
	"runtime"
	"sync"

	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/obs/trace"
	"ebda/internal/topology"
)

// Workspace owns a dependency graph plus all the scratch one verification
// needs — the graph's signature table and the Kahn/DFS state — so
// repeated verifications reset buffers instead of reallocating them. The
// channel table, head/tail indices and channel signatures depend only on
// the (network, VC configuration) shape; rebinding to another shape
// refills them in place. Adjacency rows are reused by index, truncated in
// place so they keep their capacity.
//
// A Workspace is single-verification at a time: its methods must not be
// called concurrently. Use a WorkspacePool to share workspaces across
// goroutines.
type Workspace struct {
	g  *Graph
	st acyclicState
}

// NewWorkspace builds a workspace for one network shape.
func NewWorkspace(net *topology.Network, vcs VCConfig) *Workspace {
	return &Workspace{g: NewGraph(net, vcs)}
}

// boundTo reports whether the workspace is bound to the same network
// (geometry is immutable) with the same VC count in every dimension.
func (ws *Workspace) boundTo(net *topology.Network, vcs VCConfig) bool {
	if ws.g.net != net {
		return false
	}
	for d, v := range ws.g.vcs {
		if vcs.VCs(channel.Dim(d)) != v {
			return false
		}
	}
	return true
}

// Graph returns the workspace's graph. It reflects the most recent
// verification; Reset or another verification invalidates its edges.
func (ws *Workspace) Graph() *Graph { return ws.g }

// Reset removes every dependency edge, keeping the channel table and the
// adjacency rows' capacity for the next build.
func (ws *Workspace) Reset() {
	for i := range ws.g.adj {
		ws.g.adj[i] = ws.g.adj[i][:0]
	}
	ws.g.edges = 0
}

// report runs the acyclicity fast path on the current graph and assembles
// the Report. The Cycle channels are value copies, so the report stays
// valid after the workspace is reset or reused. Cancellation between Kahn
// rounds returns ctx's error and a zero Report — a cancelled verification
// never yields a verdict.
func (ws *Workspace) report(ctx context.Context) (Report, error) {
	g := ws.g
	var cyc []Channel
	sp := phaseAcycl.Start()
	peeled, err := g.kahnPeel(ctx, &ws.st)
	if err != nil {
		sp.End()
		return Report{}, err
	}
	if peeled != len(g.channels) {
		obsResidualDFS.Inc()
		cyc = g.findCycleResidual(&ws.st)
	}
	sp.End()
	obsVerifies.Inc()
	if cyc != nil {
		obsVerifyCyclic.Inc()
	}
	return Report{
		Network:  g.net.String(),
		Channels: g.NumChannels(),
		Edges:    g.NumEdges(),
		Acyclic:  cyc == nil,
		Cycle:    cyc,
	}, nil
}

// verify resets the workspace, builds the dependency graph of the turn
// set and checks acyclicity, honouring ctx: cancellation is observed
// before the build and at Kahn round boundaries (see kahnPeel), and
// returns ctx's error with a zero Report. A completed report is
// bit-identical to the unpooled path. The workspace stays reusable after
// a cancelled run — every buffer is re-zeroed by the next verification.
//
//ebda:hotpath
func (ws *Workspace) verify(ctx context.Context, ts *core.TurnSet) (Report, error) {
	if err := ctx.Err(); err != nil {
		obsVerifyCancelled.Inc()
		return Report{}, err
	}
	tc := trace.FromContext(ctx)
	vsp := tc.StartSpan("cdg.verify")
	sp := phaseVerify.Start()
	ws.Reset()
	tesp := tc.StartSpan("cdg.edges")
	esp := phaseEdges.Start()
	ws.g.AddTurnEdges(ts)
	esp.End()
	tesp.SetInt("edges", int64(ws.g.NumEdges()))
	tesp.End()
	rep, err := ws.report(ctx)
	sp.End()
	vsp.SetInt("channels", int64(rep.Channels))
	if rep.Acyclic {
		vsp.SetInt("acyclic", 1)
	} else {
		vsp.SetInt("acyclic", 0)
	}
	vsp.End()
	return rep, err
}

// VerifyTurnSet resets the workspace, builds the dependency graph of the
// turn set and checks acyclicity.
//
//ebda:hotpath
func (ws *Workspace) VerifyTurnSet(ts *core.TurnSet) Report {
	rep, _ := ws.verify(context.Background(), ts)
	return rep
}

// VerifyTurnSetCtx is VerifyTurnSet with a deadline. The int argument is
// ignored; bench/ calls this signature.
func (ws *Workspace) VerifyTurnSetCtx(ctx context.Context, ts *core.TurnSet, _ int) (Report, error) {
	return ws.verify(ctx, ts)
}

// VerifyRelation resets the workspace, builds the dependency graph of a
// routing relation and checks acyclicity. name overrides the report's
// Network field when non-empty (routing verifications label reports
// "network / algorithm").
func (ws *Workspace) VerifyRelation(route RoutingRelation, name string) Report {
	ws.Reset()
	ws.g.AddRoutingEdges(route)
	rep, _ := ws.report(context.Background())
	if name != "" {
		rep.Network = name
	}
	return rep
}

// WorkspacePool is a goroutine-safe LIFO free list of at most GOMAXPROCS
// idle workspaces, shared by every network shape. Get prefers an idle
// workspace already bound to the requested shape and otherwise rebinds the
// most recently returned one, so the buffers one verification grew serve
// the next whatever its shape. Correctness never depends on pool contents.
type WorkspacePool struct {
	mu   sync.Mutex
	free []*Workspace
}

// DefaultPool is the process-wide workspace pool used by VerifyTurnSet
// and the verification cache.
var DefaultPool = &WorkspacePool{}

// Get returns a workspace bound to the shape, reusing a pooled one when
// any is idle.
func (p *WorkspacePool) Get(net *topology.Network, vcs VCConfig) *Workspace {
	obsPoolGets.Inc()
	p.mu.Lock()
	n := len(p.free)
	if n == 0 {
		p.mu.Unlock()
		return NewWorkspace(net, vcs)
	}
	i := n - 1
	for j := n - 1; j >= 0; j-- {
		if p.free[j].boundTo(net, vcs) {
			i = j
			break
		}
	}
	ws := p.free[i]
	copy(p.free[i:], p.free[i+1:])
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	p.mu.Unlock()
	obsPoolReuses.Inc()
	if !ws.boundTo(net, vcs) {
		ws.g.bind(net, vcs)
	}
	return ws
}

// Put returns a workspace to the pool. The caller must not use it (or any
// Graph obtained from it) afterwards.
func (p *WorkspacePool) Put(ws *Workspace) {
	obsPoolPuts.Inc()
	p.mu.Lock()
	if len(p.free) < runtime.GOMAXPROCS(0) {
		p.free = append(p.free, ws)
	}
	p.mu.Unlock()
}
