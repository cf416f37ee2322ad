package main

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"ebda/internal/cluster"
)

// TestUsageErrors: flag values the cluster cannot be built from exit 2
// before any replica starts.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-replicas", "1"}, "-replicas must be at least 2"},
		{[]string{"-replicas", "4", "-designs", "6"}, "-designs must be a positive multiple of -replicas"},
		{[]string{"-misroute", "0.6"}, "-misroute outside [0, 0.5]"},
		{[]string{"-requests", "0"}, "must be positive"},
		{[]string{"-cluster"}, "flag provided but not defined"},
		{[]string{"stray"}, "usage:"},
	} {
		var out, errw bytes.Buffer
		if code := run(append(tc.args, "-out", ""), &out, &errw); code != 2 {
			t.Errorf("%v: run = %d, want 2; stderr: %s", tc.args, code, errw.String())
			continue
		}
		if !strings.Contains(errw.String(), tc.msg) {
			t.Errorf("%v: stderr %q does not mention %q", tc.args, errw.String(), tc.msg)
		}
	}
}

func testRing(t *testing.T) (*cluster.Ring, []string) {
	t.Helper()
	names := []string{"r0", "r1", "r2", "r3"}
	ring, err := cluster.New(names)
	if err != nil {
		t.Fatal(err)
	}
	return ring, names
}

// TestBalancedDesigns: every ring member owns exactly perReplica
// distinct designs, each tagged with the owner the ring assigns its key,
// and the draw is a pure function of the seed.
func TestBalancedDesigns(t *testing.T) {
	ring, names := testRing(t)
	designs, err := balancedDesigns(1, ring, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(designs) != 16*len(names) {
		t.Fatalf("%d designs, want %d", len(designs), 16*len(names))
	}
	perOwner := make(map[string]int)
	bodies := make(map[string]bool)
	keys := make(map[uint64]bool)
	for _, d := range designs {
		if got := ring.Owner(d.key); got != d.owner {
			t.Fatalf("design %s tagged owner %s, ring says %s", d.body, d.owner, got)
		}
		if bodies[d.body] || keys[d.key] {
			t.Fatalf("design %s drawn twice", d.body)
		}
		bodies[d.body], keys[d.key] = true, true
		perOwner[d.owner]++
	}
	for _, name := range names {
		if perOwner[name] != 16 {
			t.Errorf("replica %s owns %d designs, want 16", name, perOwner[name])
		}
	}
	again, err := balancedDesigns(1, ring, 16)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, designs) {
		t.Fatal("a second draw with the same seed returned a different design list")
	}
}

// TestClusterWorkloadSeeded: the workload is a pure function of its
// seed, and the seeded misroute draw sends a pinned number of requests
// to a non-owner.
func TestClusterWorkloadSeeded(t *testing.T) {
	ring, names := testRing(t)
	designs, err := balancedDesigns(1, ring, 16)
	if err != nil {
		t.Fatal(err)
	}
	deltas, err := deltaProbeSet(ring)
	if err != nil {
		t.Fatal(err)
	}
	items := clusterWorkload(1, 800, 0.10, names, designs, deltas)
	again := clusterWorkload(1, 800, 0.10, names, designs, deltas)
	if len(items) != 800 {
		t.Fatalf("%d items, want 800", len(items))
	}
	if !reflect.DeepEqual(items, again) {
		t.Fatal("the same seed built a different workload")
	}

	owner := make(map[string]string, len(designs)+len(deltas))
	for _, d := range append(append([]clusterDesign(nil), designs...), deltas...) {
		owner[d.body] = d.owner
	}
	misrouted := 0
	for _, it := range items {
		o, ok := owner[it.req.body]
		if !ok {
			t.Fatalf("workload item %s is not a drawn design", it.req.body)
		}
		if it.entry != o {
			misrouted++
		}
	}
	// Seed 1 misroutes 95 of 800 requests (the 10% draw landing at 11.9%).
	if misrouted != 95 {
		t.Fatalf("seed 1 misrouted %d of 800 requests, want 95", misrouted)
	}
}
