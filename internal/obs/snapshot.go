package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// CounterVal is one counter series in a snapshot.
type CounterVal struct {
	Name  string `json:"name"`
	Value uint64 `json:"value"`
}

// GaugeVal is one gauge series in a snapshot.
type GaugeVal struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// HistogramVal is one histogram series in a snapshot. Counts has one
// entry per bound plus the trailing +Inf bucket.
type HistogramVal struct {
	Name   string    `json:"name"`
	Bounds []float64 `json:"bounds,omitempty"`
	Counts []uint64  `json:"counts,omitempty"`
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// WorkerVal attributes part of a phase's wall time to one worker index.
type WorkerVal struct {
	Worker  int     `json:"worker"`
	Seconds float64 `json:"seconds"`
}

// PhaseVal is one row of the phase table.
type PhaseVal struct {
	Name         string      `json:"name"`
	Parent       string      `json:"parent,omitempty"`
	Count        uint64      `json:"count"`
	TotalSeconds float64     `json:"total_seconds"`
	MaxSeconds   float64     `json:"max_seconds"`
	Workers      []WorkerVal `json:"workers,omitempty"`
}

// Snapshot is a point-in-time rendering of a registry: every series
// sorted by name, so identical workloads serialise identically. It is the
// unit the -obs-json dump, the /debug/vars endpoint, the -cachestats
// delta and the -obs-json determinism test all share.
type Snapshot struct {
	Counters   []CounterVal   `json:"counters"`
	Gauges     []GaugeVal     `json:"gauges,omitempty"`
	Histograms []HistogramVal `json:"histograms,omitempty"`
	Phases     []PhaseVal     `json:"phases,omitempty"`
}

// Snapshot renders the registry's current state with every section sorted
// by series name.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	r.mu.Lock()
	defer r.mu.Unlock()

	cnames := make([]string, 0, len(r.counters))
	for n := range r.counters {
		cnames = append(cnames, n)
	}
	sort.Strings(cnames)
	for _, n := range cnames {
		s.Counters = append(s.Counters, CounterVal{Name: n, Value: r.counters[n].Value()})
	}

	gnames := make([]string, 0, len(r.gauges))
	for n := range r.gauges {
		gnames = append(gnames, n)
	}
	sort.Strings(gnames)
	for _, n := range gnames {
		s.Gauges = append(s.Gauges, GaugeVal{Name: n, Value: r.gauges[n].Value()})
	}

	hnames := make([]string, 0, len(r.histograms))
	for n := range r.histograms {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	for _, n := range hnames {
		h := r.histograms[n]
		counts := make([]uint64, len(h.counts))
		for i := range h.counts {
			counts[i] = h.counts[i].Load()
		}
		s.Histograms = append(s.Histograms, HistogramVal{
			Name:   n,
			Bounds: append([]float64(nil), h.bounds...),
			Counts: counts,
			Sum:    h.Sum(),
			Count:  h.Count(),
		})
	}

	pnames := make([]string, 0, len(r.phases))
	for n := range r.phases {
		pnames = append(pnames, n)
	}
	sort.Strings(pnames)
	for _, n := range pnames {
		p := r.phases[n]
		pv := PhaseVal{
			Name:         n,
			Parent:       p.parent,
			Count:        p.count.Load(),
			TotalSeconds: float64(p.totalNanos.Load()) / 1e9,
			MaxSeconds:   float64(p.maxNanos.Load()) / 1e9,
		}
		for w := 0; w < maxWorkers; w++ {
			if ns := p.workerNanos[w].Load(); ns != 0 {
				pv.Workers = append(pv.Workers, WorkerVal{Worker: w, Seconds: float64(ns) / 1e9})
			}
		}
		s.Phases = append(s.Phases, pv)
	}
	return s
}

// Counter returns the value of the named counter series, or 0 when the
// snapshot has no such series.
func (s Snapshot) Counter(name string) uint64 {
	for _, c := range s.Counters {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// Phase returns the named phase row and whether it exists.
func (s Snapshot) Phase(name string) (PhaseVal, bool) {
	for _, p := range s.Phases {
		if p.Name == name {
			return p, true
		}
	}
	return PhaseVal{}, false
}

// Histogram returns the named histogram row and whether it exists.
func (s Snapshot) Histogram(name string) (HistogramVal, bool) {
	for _, h := range s.Histograms {
		if h.Name == name {
			return h, true
		}
	}
	return HistogramVal{}, false
}

// Sub returns this snapshot minus prev: counters, histogram counts/sums
// and phase count/total/worker columns subtract series-wise (series
// missing from prev pass through whole); gauges and phase maxima are
// instantaneous, so the current value is kept. Use a before/after pair
// around a run to report that run alone.
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	prevCounters := make(map[string]uint64, len(prev.Counters))
	for _, c := range prev.Counters {
		prevCounters[c.Name] = c.Value
	}
	prevHists := make(map[string]HistogramVal, len(prev.Histograms))
	for _, h := range prev.Histograms {
		prevHists[h.Name] = h
	}
	prevPhases := make(map[string]PhaseVal, len(prev.Phases))
	for _, p := range prev.Phases {
		prevPhases[p.Name] = p
	}

	out := Snapshot{}
	for _, c := range s.Counters {
		v := c.Value - prevCounters[c.Name]
		if prevCounters[c.Name] > c.Value {
			v = 0 // the underlying series was reset between snapshots
		}
		out.Counters = append(out.Counters, CounterVal{Name: c.Name, Value: v})
	}
	out.Gauges = append(out.Gauges, s.Gauges...)
	for _, h := range s.Histograms {
		p, ok := prevHists[h.Name]
		if !ok || len(p.Counts) != len(h.Counts) {
			out.Histograms = append(out.Histograms, h)
			continue
		}
		d := HistogramVal{
			Name:   h.Name,
			Bounds: h.Bounds,
			Counts: make([]uint64, len(h.Counts)),
			Sum:    h.Sum - p.Sum,
			Count:  h.Count - p.Count,
		}
		for i := range h.Counts {
			d.Counts[i] = h.Counts[i] - p.Counts[i]
		}
		out.Histograms = append(out.Histograms, d)
	}
	for _, ph := range s.Phases {
		p, ok := prevPhases[ph.Name]
		if !ok {
			out.Phases = append(out.Phases, ph)
			continue
		}
		d := PhaseVal{
			Name:         ph.Name,
			Parent:       ph.Parent,
			Count:        ph.Count - p.Count,
			TotalSeconds: ph.TotalSeconds - p.TotalSeconds,
			MaxSeconds:   ph.MaxSeconds, // maxima do not subtract
		}
		prevW := make(map[int]float64, len(p.Workers))
		for _, w := range p.Workers {
			prevW[w.Worker] = w.Seconds
		}
		for _, w := range ph.Workers {
			if sec := w.Seconds - prevW[w.Worker]; sec != 0 {
				d.Workers = append(d.Workers, WorkerVal{Worker: w.Worker, Seconds: sec})
			}
		}
		out.Phases = append(out.Phases, d)
	}
	return out
}

// Canonical returns the snapshot with every timing-dependent field zeroed
// — phase totals, maxima and worker attributions, histogram bucket counts
// and sums — keeping the deterministic structure: series names, counter
// values, gauge values, phase and histogram observation counts. Two runs
// of a deterministic workload have equal Canonical snapshots.
func (s Snapshot) Canonical() Snapshot {
	out := Snapshot{Counters: append([]CounterVal(nil), s.Counters...)}
	out.Gauges = append(out.Gauges, s.Gauges...)
	for _, h := range s.Histograms {
		out.Histograms = append(out.Histograms, HistogramVal{Name: h.Name, Count: h.Count})
	}
	for _, p := range s.Phases {
		out.Phases = append(out.Phases, PhaseVal{Name: p.Name, Parent: p.Parent, Count: p.Count})
	}
	return out
}

// Filter keeps only the series whose name starts with prefix (phase rows
// match on their phase name).
func (s Snapshot) Filter(prefix string) Snapshot {
	out := Snapshot{}
	for _, c := range s.Counters {
		if strings.HasPrefix(c.Name, prefix) {
			out.Counters = append(out.Counters, c)
		}
	}
	for _, g := range s.Gauges {
		if strings.HasPrefix(g.Name, prefix) {
			out.Gauges = append(out.Gauges, g)
		}
	}
	for _, h := range s.Histograms {
		if strings.HasPrefix(h.Name, prefix) {
			out.Histograms = append(out.Histograms, h)
		}
	}
	for _, p := range s.Phases {
		if strings.HasPrefix(p.Name, prefix) {
			out.Phases = append(out.Phases, p)
		}
	}
	return out
}

// WriteJSON renders the snapshot as indented JSON. The section slices are
// sorted by name, so the byte stream is deterministic for deterministic
// values.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ParseSnapshot decodes a snapshot previously written by WriteJSON.
func ParseSnapshot(data []byte) (Snapshot, error) {
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return Snapshot{}, fmt.Errorf("obs: bad snapshot: %w", err)
	}
	return s, nil
}

// WriteText renders the snapshot as an aligned human-readable report (the
// shared renderer behind -cachestats and friends). Empty sections are
// omitted.
func (s Snapshot) WriteText(w io.Writer) error {
	if len(s.Counters) > 0 {
		if _, err := fmt.Fprintln(w, "counters:"); err != nil {
			return err
		}
		for _, c := range s.Counters {
			if _, err := fmt.Fprintf(w, "  %-48s %d\n", c.Name, c.Value); err != nil {
				return err
			}
		}
	}
	if len(s.Gauges) > 0 {
		if _, err := fmt.Fprintln(w, "gauges:"); err != nil {
			return err
		}
		for _, g := range s.Gauges {
			if _, err := fmt.Fprintf(w, "  %-48s %d\n", g.Name, g.Value); err != nil {
				return err
			}
		}
	}
	if len(s.Phases) > 0 {
		if _, err := fmt.Fprintln(w, "phases:"); err != nil {
			return err
		}
		for _, p := range s.Phases {
			name := p.Name
			if p.Parent != "" {
				name = p.Parent + " > " + p.Name
			}
			if _, err := fmt.Fprintf(w, "  %-48s count %-8d total %.6fs  max %.6fs\n",
				name, p.Count, p.TotalSeconds, p.MaxSeconds); err != nil {
				return err
			}
		}
	}
	if len(s.Histograms) > 0 {
		if _, err := fmt.Fprintln(w, "histograms:"); err != nil {
			return err
		}
		for _, h := range s.Histograms {
			if _, err := fmt.Fprintf(w, "  %-48s count %-8d sum %.6f\n", h.Name, h.Count, h.Sum); err != nil {
				return err
			}
		}
	}
	return nil
}
