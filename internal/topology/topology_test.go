package topology

import (
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"
	"testing/quick"

	"ebda/internal/channel"
)

func TestMeshBasics(t *testing.T) {
	m := NewMesh(4, 3)
	if m.Nodes() != 12 || m.Dims() != 2 {
		t.Fatalf("nodes=%d dims=%d", m.Nodes(), m.Dims())
	}
	if m.Size(channel.X) != 4 || m.Size(channel.Y) != 3 {
		t.Error("sizes wrong")
	}
	if m.Wrap(channel.X) || m.Wrap(channel.Y) {
		t.Error("mesh must not wrap")
	}
	if m.String() != "4x3 mesh" {
		t.Errorf("String = %q", m.String())
	}
}

func TestCoordIDRoundTrip(t *testing.T) {
	m := NewMesh(5, 4, 3)
	for id := NodeID(0); int(id) < m.Nodes(); id++ {
		c := m.Coord(id)
		if !m.InBounds(c) {
			t.Fatalf("coord %v out of bounds", c)
		}
		if m.ID(c) != id {
			t.Fatalf("round trip failed for %d -> %v", id, c)
		}
	}
}

func TestMeshNeighbors(t *testing.T) {
	m := NewMesh(3, 3)
	origin := m.ID(Coord{0, 0})
	if _, _, ok := m.Neighbor(origin, channel.X, channel.Minus); ok {
		t.Error("west of origin should not exist in a mesh")
	}
	to, wrapped, ok := m.Neighbor(origin, channel.X, channel.Plus)
	if !ok || wrapped || !m.Coord(to).Equal(Coord{1, 0}) {
		t.Errorf("east of origin = %v wrapped=%v ok=%v", m.Coord(to), wrapped, ok)
	}
	corner := m.ID(Coord{2, 2})
	if _, _, ok := m.Neighbor(corner, channel.Y, channel.Plus); ok {
		t.Error("north of far corner should not exist")
	}
}

func TestTorusWraparound(t *testing.T) {
	tor := NewTorus(4, 4)
	origin := tor.ID(Coord{0, 0})
	to, wrapped, ok := tor.Neighbor(origin, channel.X, channel.Minus)
	if !ok || !wrapped || !tor.Coord(to).Equal(Coord{3, 0}) {
		t.Errorf("wraparound west = %v wrapped=%v ok=%v", tor.Coord(to), wrapped, ok)
	}
	edge := tor.ID(Coord{3, 1})
	to, wrapped, ok = tor.Neighbor(edge, channel.X, channel.Plus)
	if !ok || !wrapped || !tor.Coord(to).Equal(Coord{0, 1}) {
		t.Error("wraparound east broken")
	}
}

func TestLinksCount(t *testing.T) {
	// k x k mesh: 2 * 2 * k * (k-1) unidirectional links.
	m := NewMesh(4, 4)
	if got, want := len(m.Links()), 2*2*4*3; got != want {
		t.Errorf("mesh links = %d, want %d", got, want)
	}
	// k x k torus: 2 * 2 * k * k.
	tor := NewTorus(4, 4)
	if got, want := len(tor.Links()), 2*2*4*4; got != want {
		t.Errorf("torus links = %d, want %d", got, want)
	}
	// Wrap flags appear only on torus links.
	for _, l := range m.Links() {
		if l.Wrap {
			t.Error("mesh link marked wrap")
		}
	}
	wraps := 0
	for _, l := range tor.Links() {
		if l.Wrap {
			wraps++
		}
	}
	if wraps != 2*2*4 {
		t.Errorf("torus wrap links = %d, want 16", wraps)
	}
}

// TestLinksMatchNeighbor pins the link enumeration (which walks node
// coordinates incrementally) to Neighbor's per-node answer on regular,
// wraparound, 2-ary, 3D, partial and faulty networks.
func TestLinksMatchNeighbor(t *testing.T) {
	mesh := NewMesh(5, 3)
	nets := []*Network{
		mesh, NewTorus(4, 3), NewTorus(2, 2), NewMesh(3, 2, 4), NewTorus(3, 2, 2),
		NewPartialMesh3D(3, 3, 2, [][2]int{{1, 1}, {0, 2}}),
		mesh.WithoutLinks([]Link{{From: 6, Dim: channel.X, Sign: channel.Plus}}),
	}
	for _, net := range nets {
		var want []Link
		for id := NodeID(0); int(id) < net.Nodes(); id++ {
			for d := 0; d < net.Dims(); d++ {
				for _, sign := range []channel.Sign{channel.Plus, channel.Minus} {
					if to, wrapped, ok := net.Neighbor(id, channel.Dim(d), sign); ok {
						want = append(want, Link{From: id, To: to, Dim: channel.Dim(d), Sign: sign, Wrap: wrapped})
					}
				}
			}
		}
		if got := net.Links(); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: Links() = %v, want %v", net, got, want)
		}
	}
}

func TestPartialMesh3D(t *testing.T) {
	net := NewPartialMesh3D(3, 3, 2, [][2]int{{1, 1}})
	up := 0
	for _, l := range net.Links() {
		if l.Dim == channel.Z {
			up++
			c := net.Coord(l.From)
			if c[0] != 1 || c[1] != 1 {
				t.Errorf("vertical link at non-elevator %v", c)
			}
		}
	}
	// One elevator column with 2 layers: 1 up + 1 down.
	if up != 2 {
		t.Errorf("vertical links = %d, want 2", up)
	}
	// X/Y links unaffected.
	if !net.HasLink(net.ID(Coord{0, 0, 1}), channel.X, channel.Plus) {
		t.Error("horizontal link missing on upper layer")
	}
}

func TestMinimalOffsetsMesh(t *testing.T) {
	m := NewMesh(5, 5)
	src, dst := m.ID(Coord{1, 1}), m.ID(Coord{4, 0})
	offs := m.MinimalOffsets(src, dst)
	if offs[0] != 3 || offs[1] != -1 {
		t.Errorf("offsets = %v", offs)
	}
	if m.MinimalHops(src, dst) != 4 {
		t.Error("hops wrong")
	}
}

func TestMinimalOffsetsTorus(t *testing.T) {
	tor := NewTorus(8, 8)
	src, dst := tor.ID(Coord{0, 0}), tor.ID(Coord{7, 5})
	offs := tor.MinimalOffsets(src, dst)
	// 0 -> 7 is shorter backwards (-1); 0 -> 5 shorter backwards (-3).
	if offs[0] != -1 || offs[1] != -3 {
		t.Errorf("offsets = %v", offs)
	}
	// Exactly half way: positive direction preferred.
	src, dst = tor.ID(Coord{0, 0}), tor.ID(Coord{4, 0})
	offs = tor.MinimalOffsets(src, dst)
	if offs[0] != 4 {
		t.Errorf("half-way offset = %d, want +4", offs[0])
	}
}

func TestMinimalPathCount(t *testing.T) {
	m := NewMesh(5, 5)
	cases := []struct {
		a, b Coord
		want int
	}{
		{Coord{0, 0}, Coord{1, 0}, 1},
		{Coord{0, 0}, Coord{1, 1}, 2},
		{Coord{0, 0}, Coord{2, 2}, 6},
		{Coord{0, 0}, Coord{4, 4}, 70},
		{Coord{4, 4}, Coord{0, 0}, 70},
		{Coord{0, 0}, Coord{0, 0}, 1},
	}
	for _, tc := range cases {
		if got := m.MinimalPathCount(m.ID(tc.a), m.ID(tc.b)); got != tc.want {
			t.Errorf("paths %v -> %v = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
	m3 := NewMesh(3, 3, 3)
	// (0,0,0) -> (2,2,2): 6!/(2!2!2!) = 90.
	if got := m3.MinimalPathCount(m3.ID(Coord{0, 0, 0}), m3.ID(Coord{2, 2, 2})); got != 90 {
		t.Errorf("3D path count = %d, want 90", got)
	}
}

func TestQuickNeighborSymmetry(t *testing.T) {
	m := NewMesh(6, 5)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		id := NodeID(r.Intn(m.Nodes()))
		d := channel.Dim(r.Intn(2))
		sign := channel.Plus
		if r.Intn(2) == 0 {
			sign = channel.Minus
		}
		to, _, ok := m.Neighbor(id, d, sign)
		if !ok {
			return true
		}
		back, _, ok2 := m.Neighbor(to, d, sign.Opposite())
		return ok2 && back == id
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestQuickTorusOffsetsMinimal(t *testing.T) {
	tor := NewTorus(7, 5)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		src := NodeID(r.Intn(tor.Nodes()))
		dst := NodeID(r.Intn(tor.Nodes()))
		offs := tor.MinimalOffsets(src, dst)
		// Walking the offsets must land on dst.
		c := tor.Coord(src)
		for d, off := range offs {
			k := tor.Size(channel.Dim(d))
			c[d] = ((c[d]+off)%k + k) % k
		}
		if !c.Equal(tor.Coord(dst)) {
			return false
		}
		// No offset may exceed half the ring.
		for d, off := range offs {
			if abs(off) > tor.Size(channel.Dim(d))/2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

func TestBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("size < 2 should panic")
		}
	}()
	NewMesh(1)
}

func TestParseSizes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []int
	}{
		{"8x8", []int{8, 8}},
		{"4x4x4", []int{4, 4, 4}},
		{" 6 x 6 ", []int{6, 6}},
		{"1x4", nil},
		{"8x", nil},
		{"x8", nil},
		{"", nil},
		{"8,8", nil},
	} {
		got, err := ParseSizes(tc.in)
		if tc.want == nil {
			if err == nil {
				t.Errorf("ParseSizes(%q) = %v, want an error", tc.in, got)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("ParseSizes(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
	}
}

// mallocs calls f n times under GOMAXPROCS(1) and returns the number of
// heap allocations the n calls made in total. testing.AllocsPerRun divides
// that total by n in integers, so it reads 0 for up to n-1 stray
// allocations; here every one counts. It makes no warm-up call: a test
// writes its warm-up out.
//
// The count is process-wide, so the collector is off for the calls: that
// leaves the runtime's background scavenger no goal, and it parks instead
// of re-arming its sleep timer, whose insertion into the timer heap
// (runtime.(*timers).addHeap) can allocate inside the measured window.
func mallocs(n int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestNetworkStringAllocs pins the Report label: the rendered name is
// the only allocation.
func TestNetworkStringAllocs(t *testing.T) {
	for _, tc := range []struct {
		net  *Network
		want string
	}{
		{NewMesh(8, 8), "8x8 mesh"},
		{NewTorus(16, 4, 128), "16x4x128 torus"},
		{NewPartialMesh3D(4, 4, 3, [][2]int{{0, 0}}), "4x4x3 partial-3d"},
	} {
		if got := tc.net.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
		if n := mallocs(100, func() { _ = tc.net.String() }); n != 100 {
			t.Errorf("%s: 100 String() calls made %d allocations, want 100", tc.want, n)
		}
	}
}
