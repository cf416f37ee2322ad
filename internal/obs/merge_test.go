package obs

import (
	"reflect"
	"testing"
)

func TestMergeSumsAndUnions(t *testing.T) {
	a := Snapshot{
		Counters: []CounterVal{{Name: "a_total", Value: 3}, {Name: "shared_total", Value: 10}},
		Gauges:   []GaugeVal{{Name: "depth", Value: 2}},
		Histograms: []HistogramVal{{
			Name: "lat", Bounds: []float64{1, 2}, Counts: []uint64{1, 2, 3}, Sum: 4.5, Count: 6,
		}},
		Phases: []PhaseVal{{
			Name: "verify", Count: 4, TotalSeconds: 1.5, MaxSeconds: 0.5,
		}},
	}
	b := Snapshot{
		Counters: []CounterVal{{Name: "b_total", Value: 7}, {Name: "shared_total", Value: 5}},
		Gauges:   []GaugeVal{{Name: "depth", Value: 1}, {Name: "extra", Value: 9}},
		Histograms: []HistogramVal{{
			Name: "lat", Bounds: []float64{1, 2}, Counts: []uint64{2, 0, 1}, Sum: 1.5, Count: 3,
		}},
		Phases: []PhaseVal{{
			Name: "verify", Count: 2, TotalSeconds: 0.5, MaxSeconds: 0.9,
		}},
	}

	m := a.Merge(b)

	wantCounters := []CounterVal{
		{Name: "a_total", Value: 3}, {Name: "b_total", Value: 7}, {Name: "shared_total", Value: 15},
	}
	if !reflect.DeepEqual(m.Counters, wantCounters) {
		t.Errorf("counters = %+v, want %+v", m.Counters, wantCounters)
	}
	wantGauges := []GaugeVal{{Name: "depth", Value: 3}, {Name: "extra", Value: 9}}
	if !reflect.DeepEqual(m.Gauges, wantGauges) {
		t.Errorf("gauges = %+v, want %+v", m.Gauges, wantGauges)
	}
	h := m.Histograms[0]
	if !reflect.DeepEqual(h.Counts, []uint64{3, 2, 4}) || h.Sum != 6 || h.Count != 9 {
		t.Errorf("histogram = %+v, want bucket-wise sum", h)
	}
	p := m.Phases[0]
	if p.Count != 6 || p.TotalSeconds != 2.0 || p.MaxSeconds != 0.9 {
		t.Errorf("phase = %+v, want count 6 total 2.0 max 0.9", p)
	}
}

func TestMergeCommutesOnCanonical(t *testing.T) {
	a := Snapshot{
		Counters: []CounterVal{{Name: "x", Value: 1}, {Name: "y", Value: 2}},
		Phases:   []PhaseVal{{Name: "p", Count: 1}},
	}
	b := Snapshot{
		Counters: []CounterVal{{Name: "y", Value: 3}, {Name: "z", Value: 4}},
		Phases:   []PhaseVal{{Name: "p", Count: 2}, {Name: "q", Count: 1}},
	}
	ab, ba := a.Merge(b).Canonical(), b.Merge(a).Canonical()
	if !reflect.DeepEqual(ab, ba) {
		t.Errorf("Merge not commutative on canonical snapshots:\nab=%+v\nba=%+v", ab, ba)
	}
}

func TestMergeMismatchedBucketsKeepsReceiverShape(t *testing.T) {
	a := Snapshot{Histograms: []HistogramVal{{
		Name: "lat", Bounds: []float64{1}, Counts: []uint64{1, 2}, Sum: 2, Count: 3,
	}}}
	b := Snapshot{Histograms: []HistogramVal{{
		Name: "lat", Bounds: []float64{5}, Counts: []uint64{4, 0}, Sum: 3, Count: 4,
	}}}
	h := a.Merge(b).Histograms[0]
	if !reflect.DeepEqual(h.Bounds, []float64{1}) || !reflect.DeepEqual(h.Counts, []uint64{1, 2}) {
		t.Errorf("mismatched shapes must keep receiver buckets untouched, got %+v", h)
	}
	if h.Sum != 5 || h.Count != 7 {
		t.Errorf("Sum/Count must still combine, got %+v", h)
	}
}

func TestMergeWithEmpty(t *testing.T) {
	a := Snapshot{Counters: []CounterVal{{Name: "x", Value: 1}}}
	if got := a.Merge(Snapshot{}); !reflect.DeepEqual(got.Counters, a.Counters) {
		t.Errorf("merge with empty = %+v, want %+v", got.Counters, a.Counters)
	}
	if got := (Snapshot{}).Merge(a); !reflect.DeepEqual(got.Counters, a.Counters) {
		t.Errorf("empty merge = %+v, want %+v", got.Counters, a.Counters)
	}
}
