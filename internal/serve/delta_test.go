package serve

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"ebda/internal/cdg"
	"ebda/internal/channel"
	"ebda/internal/core"
	"ebda/internal/topology"
)

// deltaBaseBody is the /v1/verify request every delta test perturbs: the
// north-last chain on a 6x6 mesh.
const deltaBaseBody = `{"network":{"kind":"mesh","sizes":[6,6]},"chain":"PA[X+ X- Y-] -> PB[Y+]"}`

// deltaBaseDesign rebuilds the base design the way the server does, for
// computing expected verdicts through the cached engine entry points.
func deltaBaseDesign(t *testing.T) (*topology.Network, cdg.VCConfig, *core.TurnSet) {
	t.Helper()
	net := topology.NewMesh(6, 6)
	chain, err := core.ParseChain("PA[X+ X- Y-] -> PB[Y+]")
	if err != nil {
		t.Fatal(err)
	}
	return net, cdg.VCConfigFor(net.Dims(), chain.Channels()), chain.Turns(core.DefaultTurnOptions)
}

func TestDeltaEndpointSingleLink(t *testing.T) {
	_, ts := testServer(t, Config{})

	status, raw := post(t, ts, "/v1/verify", deltaBaseBody)
	if status != 200 {
		t.Fatalf("base POST /v1/verify = %d: %s", status, raw)
	}
	var base VerifyResponse
	if err := json.Unmarshal(raw, &base); err != nil {
		t.Fatal(err)
	}

	dbody := `{"base":` + deltaBaseBody + `,"base_key":"` + base.Key +
		`","remove_links":[{"at":[2,3],"dir":"X+"}]}`
	status, raw = post(t, ts, "/v1/verify/delta", dbody)
	if status != 200 {
		t.Fatalf("POST /v1/verify/delta = %d: %s", status, raw)
	}
	var first DeltaResponse
	if err := json.Unmarshal(raw, &first); err != nil {
		t.Fatal(err)
	}
	if first.Provenance != provDelta {
		t.Fatalf("first delta provenance = %q, want %q", first.Provenance, provDelta)
	}
	if first.BaseKey != base.Key {
		t.Fatalf("delta base key %q != verify key %q", first.BaseKey, base.Key)
	}
	if first.Key == "" || first.Key == base.Key {
		t.Fatalf("delta key %q must be set and distinct from the base key", first.Key)
	}
	if first.Network != "6x6 mesh-faulty" {
		t.Fatalf("delta network = %q, want the faulty derivation name", first.Network)
	}

	// The verdict must match a fresh verification of the derived network.
	net, vcs, tset := deltaBaseDesign(t)
	link, ok := net.FindLink(net.ID(topology.Coord{2, 3}), channel.Dim(0), channel.Plus)
	if !ok {
		t.Fatal("test link missing from the mesh")
	}
	want := cdg.VerifyTurnSetCached(net.WithoutLinks([]topology.Link{link}), vcs, tset)
	if first.Channels != want.Channels || first.Edges != want.Edges || first.Acyclic != want.Acyclic {
		t.Fatalf("delta verdict %+v disagrees with fresh verify %+v", first, want)
	}
	if !first.Acyclic {
		t.Fatalf("north-last minus one link must stay acyclic: %+v", first)
	}

	// The identical diff again: memoized under the delta cache identity.
	status, raw = post(t, ts, "/v1/verify/delta", dbody)
	if status != 200 {
		t.Fatalf("repeat POST = %d: %s", status, raw)
	}
	var second DeltaResponse
	if err := json.Unmarshal(raw, &second); err != nil {
		t.Fatal(err)
	}
	if second.Provenance != provCache {
		t.Fatalf("repeat delta provenance = %q, want %q", second.Provenance, provCache)
	}
	second.Provenance = first.Provenance
	if second != first {
		t.Fatalf("memoized delta verdict differs:\n first %+v\nsecond %+v", first, second)
	}

	// Spelling the same link set twice (duplicate specs) is the same
	// canonical diff, so it hits the same cache entry.
	dup := `{"base":` + deltaBaseBody +
		`,"remove_links":[{"at":[2,3],"dir":"X+"},{"at":[2,3],"dir":"X+"}]}`
	status, raw = post(t, ts, "/v1/verify/delta", dup)
	if status != 200 {
		t.Fatalf("duplicate-spec POST = %d: %s", status, raw)
	}
	var third DeltaResponse
	if err := json.Unmarshal(raw, &third); err != nil {
		t.Fatal(err)
	}
	if third.Provenance != provCache || third.Key != first.Key {
		t.Fatalf("duplicate link specs must canonicalize to the cached diff: %+v", third)
	}
}

func TestDeltaEndpointTurnToggle(t *testing.T) {
	_, ts := testServer(t, Config{})
	baseTurns := "X+>Y+,X+>Y-,X->Y+,X->Y-,Y+>X+"
	vbody := `{"network":{"kind":"mesh","sizes":[5,5]},"turns":"` + baseTurns + `"}`
	dbody := `{"base":` + vbody + `,"disable_turns":"Y+>X+"}`

	status, raw := post(t, ts, "/v1/verify/delta", dbody)
	if status != 200 {
		t.Fatalf("POST /v1/verify/delta = %d: %s", status, raw)
	}
	var got DeltaResponse
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Provenance != provDelta {
		t.Fatalf("delta provenance = %q, want %q", got.Provenance, provDelta)
	}
	if got.Network != "5x5 mesh" {
		t.Fatalf("turn-only delta renames the network: %q", got.Network)
	}

	// Expected verdict: the reduced turn list verified from scratch. The
	// declared class set is identical (every class still appears as an
	// endpoint), so the two verifications ask the same question.
	turns, err := core.ParseTurnList("X+>Y+,X+>Y-,X->Y+,X->Y-")
	if err != nil {
		t.Fatal(err)
	}
	tset := core.NewTurnSet()
	for _, tr := range turns {
		tset.Add(tr.From, tr.To, core.ByTheorem1)
	}
	tset.Declare(channel.MustParse("Y+"))
	net := topology.NewMesh(5, 5)
	want := cdg.VerifyTurnSetCached(net, cdg.VCConfigFor(net.Dims(), tset.Classes()), tset)
	if got.Channels != want.Channels || got.Edges != want.Edges || got.Acyclic != want.Acyclic {
		t.Fatalf("turn-toggle delta %+v disagrees with fresh verify %+v", got, want)
	}
}

func TestDeltaBaseKeyMismatch(t *testing.T) {
	_, ts := testServer(t, Config{})
	dbody := `{"base":` + deltaBaseBody + `,"base_key":"deadbeef","remove_links":[{"at":[2,3],"dir":"X+"}]}`
	status, raw := post(t, ts, "/v1/verify/delta", dbody)
	if status != http.StatusBadRequest {
		t.Fatalf("mismatched base_key = %d, want 400 (%s)", status, raw)
	}
	var e errorBody
	if err := json.Unmarshal(raw, &e); err != nil || !strings.Contains(e.Error, "base_key") {
		t.Fatalf("error body %q does not name base_key", raw)
	}
}

func TestDeltaRejectsBadRequests(t *testing.T) {
	_, ts := testServer(t, Config{})
	mesh44 := `{"network":{"kind":"mesh","sizes":[4,4]},"chain":"PA[X+ X- Y-] -> PB[Y+]"}`
	manyLinks := make([]string, maxDeltaLinks+1)
	for i := range manyLinks {
		manyLinks[i] = `{"at":[0,0],"dir":"Y+"}`
	}
	cases := []struct {
		name, body string
	}{
		{"empty", ``},
		{"not json", `not json`},
		{"unknown field", `{"base":` + mesh44 + `,"remove_links":[{"at":[0,0],"dir":"X+"}],"nope":1}`},
		{"no diff", `{"base":` + mesh44 + `}`},
		{"bad base", `{"base":{"network":{"kind":"mesh","sizes":[4,4]}},"remove_links":[{"at":[0,0],"dir":"X+"}]}`},
		{"too many links", `{"base":` + mesh44 + `,"remove_links":[` + strings.Join(manyLinks, ",") + `]}`},
		{"no dir", `{"base":` + mesh44 + `,"remove_links":[{"at":[0,0]}]}`},
		{"bad dir", `{"base":` + mesh44 + `,"remove_links":[{"at":[0,0],"dir":"Q+"}]}`},
		{"dir without sign", `{"base":` + mesh44 + `,"remove_links":[{"at":[0,0],"dir":"XX"}]}`},
		{"wrong coord count", `{"base":` + mesh44 + `,"remove_links":[{"at":[1],"dir":"X+"}]}`},
		{"coord out of bounds", `{"base":` + mesh44 + `,"remove_links":[{"at":[9,9],"dir":"X+"}]}`},
		{"negative coord", `{"base":` + mesh44 + `,"remove_links":[{"at":[-1,0],"dir":"X+"}]}`},
		{"boundary link missing", `{"base":` + mesh44 + `,"remove_links":[{"at":[3,3],"dir":"X+"}]}`},
		{"bad turn list", `{"base":` + mesh44 + `,"disable_turns":"garbage"}`},
		// Once read as Y+ and as Y+>X- (both valid on this base).
		{"dir with trailing bytes", `{"base":` + mesh44 + `,"remove_links":[{"at":[0,0],"dir":"D1x+"}]}`},
		{"signed VC in a toggle", `{"base":` + mesh44 + `,"enable_turns":"Y+>X+1-"}`},
		{"long base key", `{"base":` + mesh44 + `,"base_key":"00000000000000000","remove_links":[{"at":[0,0],"dir":"X+"}]}`},
		// These two decode fine but fail diff validation inside the engine:
		// the 400 flows back through statusFor's ErrBadDiff mapping.
		{"disable unknown turn", `{"base":` + mesh44 + `,"disable_turns":"Y+>X+"}`},
		{"enable permitted turn", `{"base":` + mesh44 + `,"enable_turns":"X+>Y+"}`},
	}
	for _, tc := range cases {
		status, raw := post(t, ts, "/v1/verify/delta", tc.body)
		if status != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", tc.name, status, raw)
			continue
		}
		var e errorBody
		if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body %q is not the JSON envelope", tc.name, raw)
		}
	}
}
