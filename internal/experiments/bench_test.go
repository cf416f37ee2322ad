package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestBenchWriteJSON(t *testing.T) {
	b := Bench{
		GeneratedAt: "2026-01-01T00:00:00Z",
		GoMaxProcs:  4, Quick: true,
		Experiments: []BenchExperiment{{ID: "E01", Name: "x", WallSeconds: 0.5, Match: true}},
		CDG:         []BenchCDG{{Network: "8x8 mesh", Channels: 224, Edges: 100, Acyclic: true, WallSeconds: 0.1, ChannelsPerSec: 2240}},
	}
	var buf bytes.Buffer
	if err := b.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var back Bench
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if back.Experiments[0].ID != "E01" || back.CDG[0].ChannelsPerSec != 2240 {
		t.Fatalf("round trip lost data: %+v", back)
	}
}

func TestBenchCDGCasesVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("builds large graphs")
	}
	// The snapshot's CDG cases must all be acyclic (they time genuine
	// deadlock-free verification, not failures).
	b := RunBench(Options{Quick: true})
	if len(b.Experiments) != len(All()) {
		t.Fatalf("experiments timed = %d, want %d", len(b.Experiments), len(All()))
	}
	for _, c := range b.CDG {
		if !c.Acyclic {
			t.Errorf("CDG case %s unexpectedly cyclic", c.Network)
		}
		if c.Channels == 0 || c.ChannelsPerSec <= 0 {
			t.Errorf("CDG case %s: empty measurement %+v", c.Network, c)
		}
	}
}
