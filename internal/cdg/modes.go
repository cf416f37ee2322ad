package cdg

import (
	"context"
	"fmt"
	"slices"
	"strings"
)

// This file extends the topology-free EdgeSet surface from plain
// acyclicity to the full family of channel-dependence-graph properties
// the constellation verify.py interchange exercises (-a/-b/-c/-d): a
// graph annotated with input and output channel sets can be checked for
// liveness (every packet injected at an input drains to an output),
// escape-channel validity (the Duato condition on a given escape
// subset), and existence of a valid subrelation (an acyclic sub-CDG
// that still drains everything). All four modes run through the same
// Kahn peel + residual-only cycle DFS as the concrete engine, and all
// four memoize through mode-aware cache keys derived from the
// EdgeKey family.
//
// Semantics (outputs are absorbing — a packet that reaches an output
// channel is consumed, so edges out of outputs never propagate):
//
//	loop      the full graph is acyclic (EdgeSet acyclicity, with the
//	          input/output annotation folded into the cache key).
//	liveness  every channel reachable from an input, stopping at
//	          outputs, is neither on a cycle nor a non-output dead
//	          end: every maximal path from every input ends at an
//	          output.
//	escape    a given escape channel set C is valid: (1) the subgraph
//	          induced by C is acyclic, (2) every channel in C drains
//	          to an output within C ∪ outputs, and (3) every other
//	          non-output channel reaches C ∪ outputs.
//	subrel    some acyclic subrelation (a subset of the dependency
//	          edges, one outgoing edge per non-output channel) drains
//	          every non-output channel to an output. Such a
//	          subrelation exists iff every non-output channel can
//	          reach an output; the reported witness follows
//	          breadth-first distance-to-output, so it is canonical.
//
// Channels with no edges at all are vacuous for escape and subrel:
// constellation per-output CDGs leave most channel ids out of the
// relation for any one destination, and a channel no packet can occupy
// or wait on cannot participate in a deadlock, so it owes no escape
// path. (Liveness still rejects a reachable isolated channel — a packet
// routed into it is stuck.)

// GraphMode selects a verification property for an annotated edge set.
type GraphMode uint8

const (
	// ModeLoop proves deadlock freedom by searching the full graph for a
	// loop (constellation -b).
	ModeLoop GraphMode = 1 + iota
	// ModeLiveness proves every input channel drains to an output
	// without entering a cycle or dead end (constellation -a).
	ModeLiveness
	// ModeEscape proves deadlock freedom by verifying a given escape
	// channel set (constellation -c).
	ModeEscape
	// ModeSubrel proves deadlock freedom by searching for a valid
	// acyclic subrelation (constellation -d).
	ModeSubrel
)

// String returns the mode's CLI spelling.
func (m GraphMode) String() string {
	switch m {
	case ModeLoop:
		return "loop"
	case ModeLiveness:
		return "liveness"
	case ModeEscape:
		return "escape"
	case ModeSubrel:
		return "subrel"
	}
	return fmt.Sprintf("mode(%d)", uint8(m))
}

// ParseGraphMode parses a CLI/API mode spelling.
func ParseGraphMode(s string) (GraphMode, error) {
	switch s {
	case "loop":
		return ModeLoop, nil
	case "liveness":
		return ModeLiveness, nil
	case "escape":
		return ModeEscape, nil
	case "subrel":
		return ModeSubrel, nil
	}
	return 0, fmt.Errorf("cdg: unknown graph mode %q (want loop, liveness, escape or subrel)", s)
}

// Violation reasons carried by ModeReport.Reason.
const (
	// ReasonCycle: the (relevant region of the) graph contains a
	// dependency cycle; ModeReport.Cycle holds it.
	ReasonCycle = "cycle"
	// ReasonDeadEnd: a non-output channel reachable from an input has no
	// successors; ModeReport.Path walks from an input to it.
	ReasonDeadEnd = "dead-end"
	// ReasonEscapeCycle: the subgraph induced by the escape set is
	// cyclic.
	ReasonEscapeCycle = "escape-cycle"
	// ReasonEscapeStranded: an escape channel cannot drain to an output
	// within the escape subrelation.
	ReasonEscapeStranded = "escape-stranded"
	// ReasonNoEscape: a non-output channel cannot reach the escape set
	// or an output.
	ReasonNoEscape = "no-escape"
	// ReasonNoSubrel: no valid subrelation exists — some non-output
	// channel cannot reach an output at all.
	ReasonNoSubrel = "no-subrelation"
)

// ModeReport is the verdict of one mode verification over an annotated
// edge set. It is the EdgeReport of the multi-mode surface: witnesses
// are dense channel indices produced by the same deterministic
// machinery (Kahn peel, residual-only DFS, ascending-order BFS).
type ModeReport struct {
	Mode  GraphMode
	Nodes int
	Edges int
	// OK reports whether the property holds.
	OK bool
	// Reason names the violation kind when OK is false (one of the
	// Reason* constants).
	Reason string
	// Path is a witness chain of channels leading to the violation: for
	// liveness it walks from an input to the offending channel; for
	// escape/subrel failures it names the stranded channel.
	Path []int
	// Cycle holds the offending dependency cycle in dependency order
	// (the last element depends on the first) when the violation is a
	// cycle.
	Cycle []int
	// Subrelation is the found acyclic escape subrelation for a
	// successful subrel verification: one (sender, receiver) edge per
	// draining non-output channel, ascending by sender.
	Subrelation [][2]int
}

// FormatNodeChain renders dense channel indices as "n1 => n17 => n8".
func FormatNodeChain(chain []int) string {
	parts := make([]string, len(chain))
	for i, v := range chain {
		parts[i] = fmt.Sprintf("n%d", v)
	}
	return strings.Join(parts, " => ")
}

// String renders the report on one line.
func (r ModeReport) String() string {
	if r.OK {
		extra := ""
		if r.Mode == ModeSubrel {
			extra = fmt.Sprintf(" (subrelation: %d edges)", len(r.Subrelation))
		}
		return fmt.Sprintf("%s: %d channels, %d edges: VERIFIED%s", r.Mode, r.Nodes, r.Edges, extra)
	}
	w := ""
	switch {
	case len(r.Cycle) > 0 && len(r.Path) > 0:
		w = ": " + FormatNodeChain(r.Path) + " => [" + FormatNodeChain(r.Cycle) + " => (repeat)]"
	case len(r.Cycle) > 0:
		w = ": " + FormatNodeChain(r.Cycle) + " => (repeat)"
	case len(r.Path) > 0:
		w = ": " + FormatNodeChain(r.Path)
	}
	return fmt.Sprintf("%s: %d channels, %d edges: VIOLATED (%s)%s", r.Mode, r.Nodes, r.Edges, r.Reason, w)
}

// canonSet dedups and ascending-sorts a channel id set, panicking on an
// out-of-range id (callers — the graphio parser and the serve decoder —
// validate ranges before reaching the engine, mirroring
// EdgeSet.AddEdge's contract).
func canonSet(ids []int, n int, what string) []int32 {
	out := make([]int32, 0, len(ids))
	for _, v := range ids {
		if v < 0 || v >= n {
			panic(fmt.Sprintf("cdg: %s channel %d outside [0, %d)", what, v, n))
		}
		out = append(out, int32(v))
	}
	slices.Sort(out)
	w := 0
	for i, v := range out {
		if i == 0 || v != out[w-1] {
			out[w] = v
			w++
		}
	}
	return out[:w]
}

// markSet builds a membership table for a canonical set.
func markSet(n int, ids []int32) []bool {
	m := make([]bool, n)
	for _, v := range ids {
		m[v] = true
	}
	return m
}

// VerifyMode checks one property of an annotated edge set. Escape ids are only meaningful for ModeEscape and
// must name non-output channels; all id sets are deduplicated and
// order-independent.
func VerifyMode(e *EdgeSet, mode GraphMode, inputs, outputs, escape []int) ModeReport {
	n := len(e.adj)
	return reportOf(verifyModeCtx(context.Background(), e, mode,
		canonSet(inputs, n, "input"), canonSet(outputs, n, "output"), canonSet(escape, n, "escape")))
}

// VerifyModeJobs is VerifyMode. The int argument is ignored; bench/ calls
// this signature.
func VerifyModeJobs(e *EdgeSet, mode GraphMode, inputs, outputs, escape []int, _ int) ModeReport {
	return VerifyMode(e, mode, inputs, outputs, escape)
}

// verifyModeCtx is the ctx-aware mode dispatcher over canonical id sets.
// Cancellation is observed by the Kahn peels (once per frontier round)
// and by the BFS sweeps (every bfsCtxStride pops); a cancelled
// verification's partial report must not be used.
func verifyModeCtx(ctx context.Context, e *EdgeSet, mode GraphMode, in, out, esc []int32) (ModeReport, error) {
	n := len(e.adj)
	isOut := markSet(n, out)
	obsModeVerify(mode)
	msp := phaseMode.Start()
	defer msp.End()
	rep := ModeReport{Mode: mode, Nodes: n, Edges: e.edges}
	var err error
	switch mode {
	case ModeLoop:
		err = loopMode(ctx, e, &rep)
	case ModeLiveness:
		err = livenessMode(ctx, e, in, isOut, &rep)
	case ModeEscape:
		err = escapeMode(ctx, e, out, esc, isOut, &rep)
	case ModeSubrel:
		err = subrelMode(ctx, e, out, isOut, &rep)
	default:
		panic(fmt.Sprintf("cdg: VerifyMode with invalid mode %d", uint8(mode)))
	}
	if err != nil {
		return ModeReport{}, err
	}
	if !rep.OK {
		obsModeViolations.Inc()
	}
	return rep, nil
}

// obsModeVerify bumps the per-mode verification counter.
func obsModeVerify(mode GraphMode) {
	switch mode {
	case ModeLoop:
		obsModeLoop.Inc()
	case ModeLiveness:
		obsModeLiveness.Inc()
	case ModeEscape:
		obsModeEscape.Inc()
	case ModeSubrel:
		obsModeSubrel.Inc()
	}
}

// loopMode is plain acyclicity of the full graph.
func loopMode(ctx context.Context, e *EdgeSet, rep *ModeReport) error {
	var st acyclicState
	peeled, err := kahnPeelAdj(ctx, e.adj, &st)
	if err != nil {
		return err
	}
	if peeled == len(e.adj) {
		rep.OK = true
		return nil
	}
	rep.Reason = ReasonCycle
	rep.Cycle = toInts(findCycleResidualAdj(e.adj, &st))
	return nil
}

// bfsCtxStride bounds how many BFS pops happen between context checks.
const bfsCtxStride = 1 << 12

// livenessMode explores the region reachable from the inputs (outputs
// absorb), then rejects cycles and non-output dead ends inside it.
func livenessMode(ctx context.Context, e *EdgeSet, in []int32, isOut []bool, rep *ModeReport) error {
	n := len(e.adj)
	seen := make([]bool, n)
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = -1
	}
	queue := make([]int32, 0, len(in))
	for _, v := range in {
		seen[v] = true
		queue = append(queue, v)
	}
	for qi := 0; qi < len(queue); qi++ {
		if qi%bfsCtxStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		v := queue[qi]
		if isOut[v] {
			continue
		}
		for _, s := range e.adj[v] {
			if !seen[s] {
				seen[s] = true
				parent[s] = v
				queue = append(queue, s)
			}
		}
	}
	// The region's adjacency: expanded rows are exactly the full rows
	// (every successor of an expanded channel is in the region), so rows
	// are shared, not copied. Outputs and unreached channels get empty
	// rows and peel immediately.
	radj := make([][]int32, n)
	for v := 0; v < n; v++ {
		if seen[v] && !isOut[v] {
			radj[v] = e.adj[v]
		}
	}
	var st acyclicState
	peeled, err := kahnPeelAdj(ctx, radj, &st)
	if err != nil {
		return err
	}
	if peeled != n {
		cyc := findCycleResidualAdj(radj, &st)
		rep.Reason = ReasonCycle
		rep.Cycle = toInts(cyc)
		rep.Path = walkParents(parent, lowest(cyc))
		return nil
	}
	for v := 0; v < n; v++ {
		if seen[v] && !isOut[v] && len(e.adj[v]) == 0 {
			rep.Reason = ReasonDeadEnd
			rep.Path = walkParents(parent, int32(v))
			return nil
		}
	}
	rep.OK = true
	return nil
}

// escapeMode verifies the Duato condition for a given escape channel
// set: the induced escape subgraph is acyclic, escape channels drain to
// outputs within the escape subrelation, and every other non-output
// channel can reach the escape set or an output.
func escapeMode(ctx context.Context, e *EdgeSet, out, esc []int32, isOut []bool, rep *ModeReport) error {
	n := len(e.adj)
	// An escape channel that is also an output is absorbing anyway;
	// treat it as an output, not an escape member.
	kept := make([]int32, 0, len(esc))
	for _, v := range esc {
		if !isOut[v] {
			kept = append(kept, v)
		}
	}
	esc = kept
	isEsc := markSet(n, esc)
	// (1) induced escape subgraph acyclicity.
	eadj := make([][]int32, n)
	for _, c := range esc {
		row := make([]int32, 0, len(e.adj[c]))
		for _, s := range e.adj[c] {
			if isEsc[s] {
				row = append(row, s)
			}
		}
		eadj[c] = row
	}
	var st acyclicState
	peeled, err := kahnPeelAdj(ctx, eadj, &st)
	if err != nil {
		return err
	}
	if peeled != n {
		rep.Reason = ReasonEscapeCycle
		rep.Cycle = toInts(findCycleResidualAdj(eadj, &st))
		return nil
	}
	rev, err := reverseAdj(ctx, e, isOut)
	if err != nil {
		return err
	}
	active := activeSet(e, rev)
	// (2) escape channels drain within escape ∪ outputs: reverse BFS
	// from the outputs crossing only escape-to-(escape|output) edges.
	drained := make([]bool, n)
	queue := make([]int32, 0, len(out))
	for _, o := range out {
		drained[o] = true
		queue = append(queue, o)
	}
	for qi := 0; qi < len(queue); qi++ {
		if qi%bfsCtxStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		for _, p := range rev[queue[qi]] {
			if isEsc[p] && !drained[p] {
				drained[p] = true
				queue = append(queue, p)
			}
		}
	}
	for _, c := range esc {
		if active[c] && !drained[c] {
			rep.Reason = ReasonEscapeStranded
			rep.Path = []int{int(c)}
			return nil
		}
	}
	// (3) everything else reaches escape ∪ outputs: reverse BFS seeded
	// from both sets over all (absorbing) edges.
	reach := make([]bool, n)
	queue = queue[:0]
	for v := 0; v < n; v++ {
		if isOut[v] || isEsc[v] {
			reach[v] = true
			queue = append(queue, int32(v))
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		if qi%bfsCtxStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		for _, p := range rev[queue[qi]] {
			if !reach[p] {
				reach[p] = true
				queue = append(queue, p)
			}
		}
	}
	for v := 0; v < n; v++ {
		if active[v] && !reach[v] {
			rep.Reason = ReasonNoEscape
			rep.Path = []int{v}
			return nil
		}
	}
	rep.OK = true
	return nil
}

// activeSet marks channels that participate in the dependency relation
// (at least one incident edge after output absorption); the rest are
// vacuous for escape and subrelation purposes.
func activeSet(e *EdgeSet, rev [][]int32) []bool {
	active := make([]bool, len(e.adj))
	for v := range active {
		active[v] = len(e.adj[v]) > 0 || len(rev[v]) > 0
	}
	return active
}

// subrelMode searches for a valid acyclic subrelation. One exists iff
// every non-output channel can reach an output (breadth-first distance
// to the output set is finite everywhere); the witness keeps, for each
// draining channel, its lowest distance-decreasing successor — a
// functional subgraph in which distance strictly decreases, hence
// acyclic, and every maximal path ends at an output.
func subrelMode(ctx context.Context, e *EdgeSet, out []int32, isOut []bool, rep *ModeReport) error {
	n := len(e.adj)
	rev, err := reverseAdj(ctx, e, isOut)
	if err != nil {
		return err
	}
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	queue := make([]int32, 0, len(out))
	for _, o := range out {
		dist[o] = 0
		queue = append(queue, o)
	}
	for qi := 0; qi < len(queue); qi++ {
		if qi%bfsCtxStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		v := queue[qi]
		for _, p := range rev[v] {
			if dist[p] < 0 {
				dist[p] = dist[v] + 1
				queue = append(queue, p)
			}
		}
	}
	active := activeSet(e, rev)
	var strandedMin int32 = -1
	stranded := false
	sadj := make([][]int32, n)
	for v := 0; v < n; v++ {
		if active[v] && !isOut[v] && dist[v] < 0 {
			if !stranded {
				strandedMin = int32(v)
				stranded = true
			}
			// Successors of a stranded channel are all stranded (a
			// draining successor would drain it), so rows are shared.
			sadj[v] = e.adj[v]
		}
	}
	if stranded {
		rep.Reason = ReasonNoSubrel
		rep.Path = []int{int(strandedMin)}
		var st acyclicState
		peeled, err := kahnPeelAdj(ctx, sadj, &st)
		if err != nil {
			return err
		}
		if peeled != n {
			rep.Cycle = toInts(findCycleResidualAdj(sadj, &st))
		}
		return nil
	}
	rel := make([][2]int, 0, n-len(out))
	for v := 0; v < n; v++ {
		if !active[v] || isOut[v] || dist[v] < 0 {
			continue
		}
		for _, s := range e.adj[v] {
			if dist[s] == dist[v]-1 {
				rel = append(rel, [2]int{v, int(s)})
				break
			}
		}
	}
	rep.OK = true
	rep.Subrelation = rel
	return nil
}

// reverseAdj builds the reversed adjacency with absorbing outputs
// (edges out of outputs are dropped). Predecessor rows come out
// ascending because senders are visited ascending.
func reverseAdj(ctx context.Context, e *EdgeSet, isOut []bool) ([][]int32, error) {
	n := len(e.adj)
	rev := make([][]int32, n)
	for i := 0; i < n; i++ {
		if i%bfsCtxStride == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		if isOut[i] {
			continue
		}
		for _, s := range e.adj[i] {
			rev[s] = append(rev[s], int32(i))
		}
	}
	return rev, nil
}

// walkParents rebuilds the BFS discovery path from a seed to target,
// inclusive.
func walkParents(parent []int32, target int32) []int {
	var back []int
	for v := target; v >= 0; v = parent[v] {
		back = append(back, int(v))
	}
	for i, j := 0, len(back)-1; i < j; i, j = i+1, j-1 {
		back[i], back[j] = back[j], back[i]
	}
	return back
}

// lowest returns the smallest index in a non-empty cycle.
func lowest(cyc []int32) int32 {
	m := cyc[0]
	for _, v := range cyc[1:] {
		if v < m {
			m = v
		}
	}
	return m
}

// toInts widens a dense index slice.
func toInts(v []int32) []int {
	if v == nil {
		return nil
	}
	out := make([]int, len(v))
	for i, x := range v {
		out[i] = int(x)
	}
	return out
}

// ModeKey is the dual-hash cache identity of one mode verification:
// the EdgeKey fingerprint family extended with the mode and the
// order-independent digests of the input/output/escape annotation
// sets. Two verifications share a key iff they ask the same question
// of the same graph — in particular, the four modes of one graph never
// share keys (pinned by test), and none collides with the EdgeKey of
// the bare edge set.
func ModeKey(e *EdgeSet, mode GraphMode, inputs, outputs, escape []int) (key, check uint64) {
	n := len(e.adj)
	var esc []int32
	if mode == ModeEscape {
		esc = canonSet(escape, n, "escape")
	}
	return modeKey(e, mode, canonSet(inputs, n, "input"), canonSet(outputs, n, "output"), esc)
}

// modeKey is ModeKey over canonical id sets; esc counts only in
// ModeEscape.
func modeKey(e *EdgeSet, mode GraphMode, in, out, esc []int32) (key, check uint64) {
	const (
		modeKeySeedA = 0x71c9d37af3b26d61
		modeKeySeedB = 0x4cf5ad432745937f
		inSeed       = 0x9ddfea08eb382d69
		outSeed      = 0xc3a5c85c97cb3127
		escSeed      = 0xb492b66fbe98f273
	)
	f1, f2 := e.Fingerprint()
	s1 := setDigest(in, inSeed) + setDigest(out, outSeed)
	if mode == ModeEscape {
		s1 += setDigest(esc, escSeed)
	}
	m := uint64(mode) * 0x9e3779b97f4a7c15
	key = mix64(f1 ^ modeKeySeedA ^ m ^ s1)
	check = mix64(f2*0x100000001b3 + modeKeySeedB + m + mix64(s1))
	return key, check
}

// setDigest is an order-independent digest of a canonical id set.
func setDigest(ids []int32, seed uint64) uint64 {
	h := mix64(uint64(len(ids)) ^ seed)
	for _, v := range ids {
		h += mix64(uint64(uint32(v)) ^ seed)
	}
	return h
}

// ModeQuery is the cache query for one mode verification under ModeKey.
// The id sets are canonicalized once, for both the key and the compute;
// a cancelled verification returns ctx's error and is never cached.
func ModeQuery(e *EdgeSet, mode GraphMode, inputs, outputs, escape []int) Query[ModeReport] {
	n := len(e.adj)
	in, out, esc := canonSet(inputs, n, "input"), canonSet(outputs, n, "output"), canonSet(escape, n, "escape")
	key, check := modeKey(e, mode, in, out, esc)
	return Query[ModeReport]{Key: key, Check: check, compute: func(ctx context.Context) (ModeReport, error) {
		return verifyModeCtx(ctx, e, mode, in, out, esc)
	}}
}

// DefaultModeCache is the process-wide mode-verdict cache behind
// VerifyModeCached.
var DefaultModeCache = &ModeCache{}

// VerifyModeCached is VerifyMode through the DefaultModeCache — the
// blessed entry point for tooling that proves liveness/escape/
// subrelation properties of imported channel dependence graphs.
func VerifyModeCached(e *EdgeSet, mode GraphMode, inputs, outputs, escape []int) ModeReport {
	return reportOf(DefaultModeCache.Verify(context.Background(), ModeQuery(e, mode, inputs, outputs, escape)))
}
