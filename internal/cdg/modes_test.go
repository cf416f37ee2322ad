package cdg

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// modeGraph builds an EdgeSet from explicit edges.
func modeGraph(n int, edges [][2]int) *EdgeSet {
	e := NewEdgeSet(n)
	for _, ed := range edges {
		e.AddEdge(ed[0], ed[1])
	}
	return e
}

// escapeOKGraph is the canonical Duato exerciser: inputs 0,1 feed an
// adaptive cycle 2<->3, escape channel 4 drains both to output 5. The
// full graph is cyclic, liveness fails, but the escape set {4} verifies
// and a valid subrelation exists.
func escapeOKGraph() (*EdgeSet, []int, []int) {
	e := modeGraph(6, [][2]int{{0, 2}, {1, 3}, {2, 3}, {3, 2}, {2, 4}, {3, 4}, {4, 5}})
	return e, []int{0, 1}, []int{5}
}

// TestModeLoop pins loop mode, the one acyclicity verdict for abstract
// graphs: counts, and on cyclic rows a dependency-ordered witness (every
// step an edge, the last element depending on the first).
func TestModeLoop(t *testing.T) {
	chord := ring(4)
	// A chord inside the ring must not confuse the witness.
	chord.AddEdge(1, 3)
	for _, tc := range []struct {
		name         string
		e            *EdgeSet
		in, out      []int
		nodes, edges int
		ok           bool
		cycle        []int // exact witness, when pinned
	}{
		{"path", modeGraph(4, [][2]int{{0, 1}, {1, 2}, {2, 3}}), []int{0}, []int{3}, 4, 3, true, nil},
		{"acyclic", modeGraph(5, [][2]int{{0, 1}, {1, 2}, {0, 3}, {3, 4}, {2, 4}}), nil, nil, 5, 5, true, nil},
		{"empty", NewEdgeSet(0), nil, nil, 0, 0, true, nil},
		{"ring", modeGraph(3, [][2]int{{0, 1}, {1, 2}, {2, 0}}), nil, nil, 3, 3, false, nil},
		{"ring-chord", chord, nil, nil, 4, 5, false, nil},
		{"self-loop", modeGraph(3, [][2]int{{0, 1}, {2, 2}}), nil, nil, 3, 2, false, []int{2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rep := VerifyMode(tc.e, ModeLoop, tc.in, tc.out, nil)
			if rep.Nodes != tc.nodes || rep.Edges != tc.edges {
				t.Fatalf("counts: %+v, want %d nodes, %d edges", rep, tc.nodes, tc.edges)
			}
			if tc.ok {
				if !rep.OK || rep.Reason != "" || rep.Cycle != nil {
					t.Fatalf("acyclic graph: %+v", rep)
				}
				return
			}
			if rep.OK || rep.Reason != ReasonCycle {
				t.Fatalf("cyclic graph: %+v", rep)
			}
			checkCycle(t, tc.e, rep.Cycle)
			if tc.cycle != nil && !reflect.DeepEqual(rep.Cycle, tc.cycle) {
				t.Fatalf("witness %v, want %v", rep.Cycle, tc.cycle)
			}
			if s := rep.String(); !strings.Contains(s, "VIOLATED (cycle)") {
				t.Fatalf("String() of cyclic report: %q", s)
			}
		})
	}
}

func TestModeLivenessVerified(t *testing.T) {
	// 0,1 -> 2 -> 3(out); all paths end at the output.
	e := modeGraph(4, [][2]int{{0, 2}, {1, 2}, {2, 3}})
	rep := VerifyMode(e, ModeLiveness, []int{0, 1}, []int{3}, nil)
	if !rep.OK {
		t.Fatalf("live graph rejected: %+v", rep)
	}
}

func TestModeLivenessCycle(t *testing.T) {
	e, in, out := escapeOKGraph()
	rep := VerifyMode(e, ModeLiveness, in, out, nil)
	if rep.OK || rep.Reason != ReasonCycle {
		t.Fatalf("cyclic region accepted: %+v", rep)
	}
	checkCycle(t, e, rep.Cycle)
	checkPath(t, e, rep.Path, in)
	// The path must land on the cycle's lowest channel.
	want := rep.Cycle[0]
	for _, v := range rep.Cycle {
		if v < want {
			want = v
		}
	}
	if rep.Path[len(rep.Path)-1] != want {
		t.Fatalf("path %v does not end at lowest cycle channel %d", rep.Path, want)
	}
}

func TestModeLivenessDeadEnd(t *testing.T) {
	// 0 -> 1 -> 2 (sink, not an output); 3 is the declared output.
	e := modeGraph(4, [][2]int{{0, 1}, {1, 2}})
	rep := VerifyMode(e, ModeLiveness, []int{0}, []int{3}, nil)
	if rep.OK || rep.Reason != ReasonDeadEnd {
		t.Fatalf("dead end accepted: %+v", rep)
	}
	checkPath(t, e, rep.Path, []int{0})
	if got := rep.Path[len(rep.Path)-1]; got != 2 {
		t.Fatalf("path ends at %d, want dead end 2", got)
	}
	// Loop mode passes the same graph: the dead end is not a cycle.
	if lr := VerifyMode(e, ModeLoop, []int{0}, []int{3}, nil); !lr.OK {
		t.Fatalf("loop mode rejected acyclic graph: %+v", lr)
	}
}

func TestModeLivenessIgnoresUnreachableCycle(t *testing.T) {
	// The cycle 3<->4 is not reachable from the input, so liveness
	// holds even though loop mode fails.
	e := modeGraph(5, [][2]int{{0, 1}, {3, 4}, {4, 3}})
	in, out := []int{0}, []int{1}
	if rep := VerifyMode(e, ModeLiveness, in, out, nil); !rep.OK {
		t.Fatalf("liveness rejected unreachable cycle: %+v", rep)
	}
	if rep := VerifyMode(e, ModeLoop, in, out, nil); rep.OK {
		t.Fatal("loop mode missed the cycle")
	}
}

func TestModeEscapeVerified(t *testing.T) {
	e, in, out := escapeOKGraph()
	rep := VerifyMode(e, ModeEscape, in, out, []int{4})
	if !rep.OK {
		t.Fatalf("valid escape set rejected: %+v", rep)
	}
	// Loop mode fails the same graph: only the escape subrelation is
	// acyclic — exactly Duato's contrast.
	if lr := VerifyMode(e, ModeLoop, in, out, nil); lr.OK {
		t.Fatal("loop mode accepted the cyclic full graph")
	}
}

func TestModeEscapeCycle(t *testing.T) {
	// Escape channels 2,3 form a cycle between themselves.
	e, in, out := escapeOKGraph()
	rep := VerifyMode(e, ModeEscape, in, out, []int{2, 3})
	if rep.OK || rep.Reason != ReasonEscapeCycle {
		t.Fatalf("cyclic escape set accepted: %+v", rep)
	}
	checkCycle(t, e, rep.Cycle)
}

func TestModeEscapeStranded(t *testing.T) {
	// 4 is acyclic as a singleton but cannot drain to the output within
	// the escape subrelation (its only path 4->5 exists... remove it).
	e := modeGraph(6, [][2]int{{0, 2}, {1, 3}, {2, 3}, {3, 2}, {2, 4}, {3, 4}})
	rep := VerifyMode(e, ModeEscape, []int{0, 1}, []int{5}, []int{4})
	if rep.OK || rep.Reason != ReasonEscapeStranded {
		t.Fatalf("stranded escape accepted: %+v", rep)
	}
	if !reflect.DeepEqual(rep.Path, []int{4}) {
		t.Fatalf("witness: %v", rep.Path)
	}
}

func TestModeEscapeUnreached(t *testing.T) {
	// Channels 1 and 4 cycle between themselves with no path to the
	// escape set or an output.
	e := modeGraph(5, [][2]int{{0, 2}, {2, 3}, {1, 4}, {4, 1}})
	rep := VerifyMode(e, ModeEscape, []int{0}, []int{3}, []int{2})
	if rep.OK || rep.Reason != ReasonNoEscape {
		t.Fatalf("unreachable channel accepted: %+v", rep)
	}
	if !reflect.DeepEqual(rep.Path, []int{1}) {
		t.Fatalf("witness: %v", rep.Path)
	}
}

func TestModeIsolatedChannelsVacuous(t *testing.T) {
	// Channel 1 has no edges at all: constellation per-output CDGs leave
	// most ids out of the relation, so escape and subrel ignore it.
	e := modeGraph(4, [][2]int{{0, 2}, {2, 3}})
	if rep := VerifyMode(e, ModeEscape, []int{0}, []int{3}, []int{2}); !rep.OK {
		t.Fatalf("isolated channel broke escape: %+v", rep)
	}
	if rep := VerifyMode(e, ModeSubrel, []int{0}, []int{3}, nil); !rep.OK {
		t.Fatalf("isolated channel broke subrel: %+v", rep)
	}
	// Liveness still fails if an input is routed into an isolated
	// channel-free sink... here 1 is unreachable, so liveness holds.
	if rep := VerifyMode(e, ModeLiveness, []int{0}, []int{3}, nil); !rep.OK {
		t.Fatalf("liveness: %+v", rep)
	}
}

func TestModeEscapeOutputMember(t *testing.T) {
	// Listing an output as an escape channel is harmless: it is
	// absorbing either way.
	e, in, out := escapeOKGraph()
	rep := VerifyMode(e, ModeEscape, in, out, []int{4, 5})
	if !rep.OK {
		t.Fatalf("escape set containing an output rejected: %+v", rep)
	}
}

func TestModeSubrelFound(t *testing.T) {
	e, in, out := escapeOKGraph()
	rep := VerifyMode(e, ModeSubrel, in, out, nil)
	if !rep.OK {
		t.Fatalf("subrelation not found: %+v", rep)
	}
	// One outgoing edge per non-output channel, every edge from the
	// original graph, and the subrelation itself must be acyclic.
	sub := NewEdgeSet(e.NumNodes())
	seen := make(map[int]bool)
	for _, ed := range rep.Subrelation {
		if !e.HasEdge(ed[0], ed[1]) {
			t.Fatalf("subrelation edge %v not in the graph", ed)
		}
		if seen[ed[0]] {
			t.Fatalf("channel %d has two subrelation edges", ed[0])
		}
		seen[ed[0]] = true
		sub.AddEdge(ed[0], ed[1])
	}
	if len(seen) != e.NumNodes()-len(out) {
		t.Fatalf("subrelation covers %d channels, want %d", len(seen), e.NumNodes()-len(out))
	}
	if sr := VerifyMode(sub, ModeLoop, nil, nil, nil); !sr.OK {
		t.Fatalf("subrelation is cyclic: %v", sr)
	}
	// The found subrelation's senders must also pass escape-mode
	// verification as an escape set... the non-output channels all
	// drain, so the full channel set is a valid escape set here only if
	// induced acyclicity holds; instead pin the defining property:
	// every maximal subrelation path ends at an output.
	for _, ed := range rep.Subrelation {
		v := ed[1]
		for hops := 0; ; hops++ {
			if hops > e.NumNodes() {
				t.Fatalf("subrelation path from %v does not terminate", ed)
			}
			isOutV := false
			for _, o := range out {
				if v == o {
					isOutV = true
				}
			}
			if isOutV {
				break
			}
			succs := sub.Succs(v)
			if len(succs) != 1 {
				t.Fatalf("subrelation channel %d has %d successors", v, len(succs))
			}
			v = int(succs[0])
		}
	}
}

func TestModeSubrelNone(t *testing.T) {
	// 1,2,3 cycle with no route to the output: no subrelation exists.
	e := modeGraph(5, [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 1}})
	rep := VerifyMode(e, ModeSubrel, []int{0}, []int{4}, nil)
	if rep.OK || rep.Reason != ReasonNoSubrel {
		t.Fatalf("impossible subrelation reported: %+v", rep)
	}
	if len(rep.Path) != 1 || rep.Path[0] != 0 {
		t.Fatalf("witness channel: %v (want lowest stranded 0)", rep.Path)
	}
	checkCycle(t, e, rep.Cycle)
}

// TestModeJobsInvariance: VerifyModeJobs, which bench/ calls with an
// ignored int argument, answers exactly as VerifyMode.
func TestModeJobsInvariance(t *testing.T) {
	// A denser graph: two meshes of channels with a cyclic core.
	n := 64
	e := NewEdgeSet(n)
	for i := 0; i < n-2; i++ {
		e.AddEdge(i, (i*7+3)%(n-1))
		e.AddEdge(i, (i+1)%(n-1))
	}
	in, out := []int{0, 1, 2}, []int{n - 1, n - 2}
	e.AddEdge(5, n-1)
	for _, mode := range []GraphMode{ModeLoop, ModeLiveness, ModeEscape, ModeSubrel} {
		base := VerifyMode(e, mode, in, out, []int{5})
		for _, jobs := range benchJobs {
			got := VerifyModeJobs(e, mode, in, out, []int{5}, jobs)
			if !reflect.DeepEqual(base, got) {
				t.Fatalf("%s: VerifyMode %+v != jobs=%d %+v", mode, base, jobs, got)
			}
		}
	}
}

// TestModeKeyNoCollisions pins the acceptance criterion: mode-aware
// cache keys never collide across modes for the same graph.
func TestModeKeyNoCollisions(t *testing.T) {
	e, in, out := escapeOKGraph()
	esc := []int{4}
	modes := []GraphMode{ModeLoop, ModeLiveness, ModeEscape, ModeSubrel}
	keys := make(map[uint64]string)
	for _, m := range modes {
		k, _ := ModeKey(e, m, in, out, esc)
		if prev, dup := keys[k]; dup {
			t.Fatalf("mode %s key collides with %s", m, prev)
		}
		keys[k] = m.String()
	}
	// Different annotation sets are different questions.
	k1, _ := ModeKey(e, ModeLiveness, in, out, nil)
	k2, _ := ModeKey(e, ModeLiveness, []int{0}, out, nil)
	if k1 == k2 {
		t.Fatal("input set not part of the key")
	}
	k3, _ := ModeKey(e, ModeEscape, in, out, []int{4})
	k4, _ := ModeKey(e, ModeEscape, in, out, []int{2})
	if k3 == k4 {
		t.Fatal("escape set not part of the escape-mode key")
	}
	// ...but the escape set is irrelevant to non-escape modes.
	k5, _ := ModeKey(e, ModeSubrel, in, out, []int{4})
	k6, _ := ModeKey(e, ModeSubrel, in, out, nil)
	if k5 != k6 {
		t.Fatal("escape set leaked into the subrel key")
	}
	// Order and duplicates do not change the question.
	k7, c7 := ModeKey(e, ModeLiveness, []int{1, 0, 1}, out, nil)
	k8, c8 := ModeKey(e, ModeLiveness, in, out, nil)
	if k7 != k8 || c7 != c8 {
		t.Fatal("set canonicalisation missing from ModeKey")
	}
}

func TestModeCache(t *testing.T) {
	t.Run("liveness", testModeCacheLiveness)
	t.Run("loop-order-independent", testModeCacheLoopOrder)
}

func testModeCacheLiveness(t *testing.T) {
	e, in, out := escapeOKGraph()
	c := &ModeCache{}
	if _, ok := c.Lookup(ModeKey(e, ModeLiveness, in, out, nil)); ok {
		t.Fatal("hit on empty cache")
	}
	want := VerifyMode(e, ModeLiveness, in, out, nil)
	got, _ := c.Verify(context.Background(), ModeQuery(e, ModeLiveness, in, out, nil))
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("cached %+v != direct %+v", got, want)
	}
	if rep, ok := c.Lookup(ModeKey(e, ModeLiveness, in, out, nil)); !ok || !reflect.DeepEqual(rep, want) {
		t.Fatalf("lookup after fill: ok=%v %+v", ok, rep)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats: %+v", st)
	}
	// A second compute is a hit.
	if got, _ := c.Verify(context.Background(), ModeQuery(e, ModeLiveness, in, out, nil)); !reflect.DeepEqual(want, got) {
		t.Fatalf("second verify: %+v", got)
	}
	if st := c.Stats(); st.Hits != 2 {
		t.Fatalf("stats after repeat: %+v", st)
	}
	// Different mode, same graph: distinct entry.
	c.Verify(context.Background(), ModeQuery(e, ModeLoop, in, out, nil))
	if st := c.Stats(); st.Entries != 2 {
		t.Fatalf("modes share an entry: %+v", st)
	}
}

// testModeCacheLoopOrder: a loop question about a structurally identical
// edge set built in another order hits the first answer, which equals the
// uncached verdict.
func testModeCacheLoopOrder(t *testing.T) {
	c := &ModeCache{}
	e := ring(10)
	first, _ := c.Verify(context.Background(), ModeQuery(e, ModeLoop, nil, nil, nil))
	f := NewEdgeSet(10)
	for i := 9; i >= 0; i-- {
		f.AddEdge(i, (i+1)%10)
	}
	second, _ := c.Verify(context.Background(), ModeQuery(f, ModeLoop, nil, nil, nil))
	if st := c.Stats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit / 1 miss", st)
	}
	uncached := VerifyMode(f, ModeLoop, nil, nil, nil)
	if !reflect.DeepEqual(first, second) || !reflect.DeepEqual(first, uncached) {
		t.Fatalf("cached %+v, %+v vs uncached %+v", first, second, uncached)
	}
	checkCycle(t, f, second.Cycle)
}

func TestModeCacheCancelledNotCached(t *testing.T) {
	e, in, out := escapeOKGraph()
	c := &ModeCache{}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Verify(ctx, ModeQuery(e, ModeLiveness, in, out, nil)); err == nil {
		t.Fatal("cancelled verification returned no error")
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("cancelled verdict cached: %+v", st)
	}
	// The same question answers fine afterwards.
	rep, err := c.Verify(context.Background(), ModeQuery(e, ModeLiveness, in, out, nil))
	if err != nil || rep.Mode != ModeLiveness {
		t.Fatalf("post-cancel verify: %+v err=%v", rep, err)
	}
}

func TestVerifyModeCachedEquivalence(t *testing.T) {
	e, in, out := escapeOKGraph()
	for _, mode := range []GraphMode{ModeLoop, ModeLiveness, ModeEscape, ModeSubrel} {
		direct := VerifyMode(e, mode, in, out, []int{4})
		cached := VerifyModeCached(e, mode, in, out, []int{4})
		if !reflect.DeepEqual(direct, cached) {
			t.Fatalf("%s: cached %+v != direct %+v", mode, cached, direct)
		}
	}
}

func TestModeReportString(t *testing.T) {
	e, in, out := escapeOKGraph()
	ok := VerifyMode(e, ModeEscape, in, out, []int{4})
	if s := ok.String(); s != "escape: 6 channels, 7 edges: VERIFIED" {
		t.Fatalf("ok render: %q", s)
	}
	bad := VerifyMode(e, ModeLiveness, in, out, nil)
	s := bad.String()
	if want := "liveness: 6 channels, 7 edges: VIOLATED (cycle)"; len(s) < len(want) || s[:len(want)] != want {
		t.Fatalf("violation render: %q", s)
	}
	sub := VerifyMode(e, ModeSubrel, in, out, nil)
	if s := sub.String(); s != "subrel: 6 channels, 7 edges: VERIFIED (subrelation: 5 edges)" {
		t.Fatalf("subrel render: %q", s)
	}
}

func TestParseGraphMode(t *testing.T) {
	for _, m := range []GraphMode{ModeLoop, ModeLiveness, ModeEscape, ModeSubrel} {
		got, err := ParseGraphMode(m.String())
		if err != nil || got != m {
			t.Fatalf("round trip %s: %v %v", m, got, err)
		}
	}
	if _, err := ParseGraphMode("bogus"); err == nil {
		t.Fatal("bogus mode accepted")
	}
}

// checkCycle asserts the witness is a real dependency cycle of e.
func checkCycle(t *testing.T, e *EdgeSet, cyc []int) {
	t.Helper()
	if len(cyc) == 0 {
		t.Fatal("empty cycle witness")
	}
	for i, v := range cyc {
		next := cyc[(i+1)%len(cyc)]
		if !e.HasEdge(v, next) {
			t.Fatalf("cycle %v: missing edge %d->%d", cyc, v, next)
		}
	}
}

// checkPath asserts the witness path starts at an input and follows
// real edges.
func checkPath(t *testing.T, e *EdgeSet, path []int, inputs []int) {
	t.Helper()
	if len(path) == 0 {
		t.Fatal("empty path witness")
	}
	isIn := false
	for _, v := range inputs {
		if v == path[0] {
			isIn = true
		}
	}
	if !isIn {
		t.Fatalf("path %v does not start at an input", path)
	}
	for i := 0; i+1 < len(path); i++ {
		if !e.HasEdge(path[i], path[i+1]) {
			t.Fatalf("path %v: missing edge %d->%d", path, path[i], path[i+1])
		}
	}
}

// TestSubgraphMatchesRows holds csr.subgraph, which copies runs of kept
// rows whole, against a row-by-row filter on seeded random graphs whose
// offsets may cover only a prefix of the rows, with and without a
// successor mask, kept sets from none to all.
func TestSubgraphMatchesRows(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 200; step++ {
		n := 1 + rng.Intn(40)
		e := NewEdgeSet(n)
		// Senders lie below a random bound, so the last rows may lie past
		// off.
		senders := 1 + rng.Intn(n)
		for i := rng.Intn(4 * n); i > 0; i-- {
			e.AddEdge(rng.Intn(senders), rng.Intn(n))
		}
		p := []float64{0, 0.3, 0.8, 1}[rng.Intn(4)]
		kept, mark := make([]bool, n), make([]bool, n)
		for v := range kept {
			kept[v], mark[v] = rng.Float64() < p, rng.Intn(2) == 0
		}
		for _, to := range [][]bool{nil, mark} {
			var got csr
			got.succ = append(got.succ, 99) // stale content must go
			e.adj.subgraph(&got, func(v int32) bool { return kept[v] }, to)
			for v := int32(0); int(v) < n; v++ {
				var want []int32
				if kept[v] {
					for _, s := range e.adj.row(v) {
						if to == nil || to[s] {
							want = append(want, s)
						}
					}
				}
				if row := got.row(v); !slices.Equal(row, want) {
					t.Fatalf("step %d (to mask %t): row %d = %v, want %v", step, to != nil, v, row, want)
				}
			}
			if len(got.off) != n+1 || int(got.off[n]) != len(got.succ) {
				t.Fatalf("step %d: %d offsets ending at %d for %d rows and %d edges", step, len(got.off), got.off[len(got.off)-1], n, len(got.succ))
			}
		}
	}
}
