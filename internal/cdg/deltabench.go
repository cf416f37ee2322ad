package cdg

import (
	"encoding/json"
	"fmt"
	"io"
)

// DeltaBench is the incremental-verification perf snapshot written by
// ebda-deltabench (the BENCH_delta.json file). Kind distinguishes it
// from the engine snapshot (no kind) and the serving snapshot ("serve");
// ebda-benchdiff dispatches on it. The headline number is each case's
// Ratio — incremental re-verification cost as a fraction of the
// from-scratch cost — which benchdiff gates absolutely (the delta path
// only earns its complexity while it stays a few percent of a full
// verification).
type DeltaBench struct {
	Kind        string `json:"kind"` // always "delta"
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"num_cpu"`
	Rounds      int    `json:"rounds"`

	Cases []DeltaBenchCase `json:"cases"`
}

// DeltaBenchCase compares one perturbation family on one design.
type DeltaBenchCase struct {
	Name    string `json:"name"`
	Network string `json:"network"`
	// FullNanos is the mean per-diff cost of the pre-delta path: derive
	// the perturbed design and verify it from scratch.
	FullNanos float64 `json:"full_ns"`
	// DeltaNanos is the mean per-diff cost through the retained
	// workspace's region re-peel.
	DeltaNanos float64 `json:"delta_ns"`
	// Ratio is DeltaNanos / FullNanos (0 when the full baseline is 0).
	Ratio float64 `json:"ratio"`
	// Incremental and Fallbacks split the delta verifications by path, so
	// a snapshot where every diff fell back to a full peel is visibly not
	// measuring the incremental machinery.
	Incremental uint64 `json:"incremental"`
	Fallbacks   uint64 `json:"fallbacks"`
}

// DeltaBenchKind is the Kind value of delta snapshots.
const DeltaBenchKind = "delta"

// WriteJSON renders the snapshot as indented JSON.
func (b DeltaBench) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(b)
}

// ReadDeltaBench parses a delta snapshot, rejecting other kinds.
func ReadDeltaBench(data []byte) (DeltaBench, error) {
	var b DeltaBench
	if err := json.Unmarshal(data, &b); err != nil {
		return DeltaBench{}, err
	}
	if b.Kind != DeltaBenchKind {
		return DeltaBench{}, fmt.Errorf("snapshot kind %q is not %q", b.Kind, DeltaBenchKind)
	}
	return b, nil
}
