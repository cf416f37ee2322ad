package algs

import (
	"slices"
	"testing"

	"ebda/internal/channel"
	"ebda/internal/topology"
)

// TestByName resolves every name on a mesh and a torus: each builds an
// algorithm, except that one needing wraparound links is an error on the
// mesh; aliases of one entry build the same algorithm with the same VC
// vector, no name appears twice, and an unknown name is an error.
func TestByName(t *testing.T) {
	names := Names()
	if len(names) < len(table) {
		t.Fatalf("%d names for %d algorithms", len(names), len(table))
	}
	for i, n := range names {
		if slices.Index(names, n) != i {
			t.Errorf("name %q appears twice", n)
		}
	}
	for _, net := range []*topology.Network{topology.NewMesh(4, 4), topology.NewTorus(4, 4)} {
		for _, e := range table {
			first, firstVCs, err := ByName(e.names[0], net)
			if e.wrapAll && !net.Wrap(channel.X) {
				if want := `algorithm "` + e.names[0] + `" routes only over wraparound links and needs them in every dimension; 4x4 mesh has none in X`; err == nil || err.Error() != want {
					t.Errorf("%s on %s: %v, want %q", e.names[0], net, err, want)
				}
				continue
			}
			if err != nil || first == nil {
				t.Fatalf("%s on %s: %v", e.names[0], net, err)
			}
			for _, alias := range e.names[1:] {
				alg, vcs, err := ByName(alias, net)
				if err != nil || alg.Name() != first.Name() || !slices.Equal(vcs, firstVCs) {
					t.Errorf("%s on %s: %v %v %v, want %s %v", alias, net, alg, vcs, err, first.Name(), firstVCs)
				}
			}
		}
	}
	if _, _, err := ByName("nope", topology.NewMesh(4, 4)); err == nil || err.Error() != `unknown algorithm "nope"` {
		t.Errorf("unknown name: %v", err)
	}
}
