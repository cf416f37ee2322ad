package obs

// Merge folds another snapshot into this one, series-wise by name, and
// returns the combined snapshot — the fleet view /v1/cluster/metrics
// builds by folding every replica's snapshot together. Counters and
// gauges sum (a gauge like queue depth reads as the fleet total);
// histogram bucket counts sum when both series share a bucket shape
// (otherwise the merged series keeps the receiver's buckets and only
// Sum/Count combine); phase counts and totals sum while maxima take the
// larger side. Series present on either side
// appear in the result, which keeps every section sorted by name as
// long as both inputs were — Registry.Snapshot and ParseSnapshot both
// guarantee that.
func (s Snapshot) Merge(o Snapshot) Snapshot {
	out := Snapshot{}

	for i, j := 0, 0; i < len(s.Counters) || j < len(o.Counters); {
		switch {
		case j == len(o.Counters) || (i < len(s.Counters) && s.Counters[i].Name < o.Counters[j].Name):
			out.Counters = append(out.Counters, s.Counters[i])
			i++
		case i == len(s.Counters) || o.Counters[j].Name < s.Counters[i].Name:
			out.Counters = append(out.Counters, o.Counters[j])
			j++
		default:
			out.Counters = append(out.Counters, CounterVal{
				Name:  s.Counters[i].Name,
				Value: s.Counters[i].Value + o.Counters[j].Value,
			})
			i, j = i+1, j+1
		}
	}

	for i, j := 0, 0; i < len(s.Gauges) || j < len(o.Gauges); {
		switch {
		case j == len(o.Gauges) || (i < len(s.Gauges) && s.Gauges[i].Name < o.Gauges[j].Name):
			out.Gauges = append(out.Gauges, s.Gauges[i])
			i++
		case i == len(s.Gauges) || o.Gauges[j].Name < s.Gauges[i].Name:
			out.Gauges = append(out.Gauges, o.Gauges[j])
			j++
		default:
			out.Gauges = append(out.Gauges, GaugeVal{
				Name:  s.Gauges[i].Name,
				Value: s.Gauges[i].Value + o.Gauges[j].Value,
			})
			i, j = i+1, j+1
		}
	}

	for i, j := 0, 0; i < len(s.Histograms) || j < len(o.Histograms); {
		switch {
		case j == len(o.Histograms) || (i < len(s.Histograms) && s.Histograms[i].Name < o.Histograms[j].Name):
			out.Histograms = append(out.Histograms, s.Histograms[i])
			i++
		case i == len(s.Histograms) || o.Histograms[j].Name < s.Histograms[i].Name:
			out.Histograms = append(out.Histograms, o.Histograms[j])
			j++
		default:
			out.Histograms = append(out.Histograms, mergeHist(s.Histograms[i], o.Histograms[j]))
			i, j = i+1, j+1
		}
	}

	for i, j := 0, 0; i < len(s.Phases) || j < len(o.Phases); {
		switch {
		case j == len(o.Phases) || (i < len(s.Phases) && s.Phases[i].Name < o.Phases[j].Name):
			out.Phases = append(out.Phases, s.Phases[i])
			i++
		case i == len(s.Phases) || o.Phases[j].Name < s.Phases[i].Name:
			out.Phases = append(out.Phases, o.Phases[j])
			j++
		default:
			out.Phases = append(out.Phases, mergePhase(s.Phases[i], o.Phases[j]))
			i, j = i+1, j+1
		}
	}
	return out
}

func mergeHist(a, b HistogramVal) HistogramVal {
	m := HistogramVal{
		Name:  a.Name,
		Sum:   a.Sum + b.Sum,
		Count: a.Count + b.Count,
	}
	sameShape := len(a.Bounds) == len(b.Bounds) && len(a.Counts) == len(b.Counts)
	for i := 0; sameShape && i < len(a.Bounds); i++ {
		sameShape = a.Bounds[i] == b.Bounds[i]
	}
	m.Bounds = append([]float64(nil), a.Bounds...)
	m.Counts = append([]uint64(nil), a.Counts...)
	if sameShape {
		for i := range b.Counts {
			m.Counts[i] += b.Counts[i]
		}
	}
	return m
}

func mergePhase(a, b PhaseVal) PhaseVal {
	m := PhaseVal{
		Name:         a.Name,
		Parent:       a.Parent,
		Count:        a.Count + b.Count,
		TotalSeconds: a.TotalSeconds + b.TotalSeconds,
		MaxSeconds:   a.MaxSeconds,
	}
	if m.Parent == "" {
		m.Parent = b.Parent
	}
	if b.MaxSeconds > m.MaxSeconds {
		m.MaxSeconds = b.MaxSeconds
	}
	return m
}
