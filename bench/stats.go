package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"ebda/internal/obs/trace"
)

// minTail is how many samples must lie beyond a reported percentile for
// that percentile to mean anything: p99 needs at least 1,000 samples.
const minTail = 10

// rank returns the 1-based nearest rank of the q-quantile among n sorted
// samples: the smallest rank r with r >= q·n.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// quantile returns the nearest-rank q-quantile of an ascending slice, or
// 0 when it is empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// tailOK reports whether at least minTail of n samples lie beyond the
// nearest-rank q-quantile.
func tailOK(n int, q float64) bool {
	return n > 0 && n-rank(n, q) >= minTail
}

// median sorts a copy of xs and returns its nearest-rank median.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// mean returns the arithmetic mean of xs, or 0 when it is empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio returns a/b, or 0 when b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// regressed reports whether cur is worse than base by more than the
// metric's bound: the relative bound times base, but never less than the
// metric's absolute floor.
func (m metricDef) regressed(base, cur float64) bool {
	allowed := math.Max(m.Bound*math.Abs(base), m.Floor)
	if m.Better == "higher" {
		return base-cur > allowed
	}
	return cur-base > allowed
}

// promText is one scrape of a Prometheus text exposition: sample value
// by full series name, labels included.
type promText map[string]float64

// parseProm reads the Prometheus text format: comment and blank lines are
// skipped, every other line is "series value".
func parseProm(r io.Reader) (promText, error) {
	out := promText{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i <= 0 {
			return nil, fmt.Errorf("metrics: malformed line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics: line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// delta returns how much a counter series grew from before to p; a series
// absent from a scrape counts as 0.
func (p promText) delta(before promText, series string) float64 {
	return p[series] - before[series]
}

// phaseSeconds returns the growth of one ebda_phase_seconds_total series.
func (p promText) phaseSeconds(before promText, phase string) float64 {
	return p.delta(before, `ebda_phase_seconds_total{phase="`+phase+`"}`)
}

// servePhaseSeconds sums the growth of every serve.* phase: the time the
// HTTP handlers spent, whichever endpoint ran.
func (p promText) servePhaseSeconds(before promText) float64 {
	const prefix = `ebda_phase_seconds_total{phase="serve.`
	sum := 0.0
	for series, v := range p {
		if strings.HasPrefix(series, prefix) {
			sum += v - before[series]
		}
	}
	return sum
}

// spanTimes is the per-name breakdown of one trace: summed self time in
// microseconds and span count.
type spanTimes struct {
	self  map[string]int64
	count map[string]int
	// root is the root span's duration; covered is the part of it the
	// root's children cover.
	root, covered int64
}

// selfTimes computes every span's self time — its duration minus the
// part of its interval that its children cover — and sums them by span
// name. The root is the span without a parent.
func selfTimes(tj trace.TraceJSON) spanTimes {
	st := spanTimes{self: map[string]int64{}, count: map[string]int{}}
	children := make(map[string][]trace.SpanJSON, len(tj.Spans))
	for _, sp := range tj.Spans {
		if sp.Parent != "" {
			children[sp.Parent] = append(children[sp.Parent], sp)
		}
	}
	for _, sp := range tj.Spans {
		cov := coveredMicros(sp, children[sp.ID])
		if sp.Parent == "" {
			st.root = sp.DurMicros
			st.covered = cov
			continue
		}
		st.self[sp.Name] += sp.DurMicros - cov
		st.count[sp.Name]++
	}
	return st
}

// coveredMicros returns the length of the union of the children's
// intervals, clipped to the parent's interval.
func coveredMicros(parent trace.SpanJSON, kids []trace.SpanJSON) int64 {
	lo, hi := parent.StartMicros, parent.StartMicros+parent.DurMicros
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.StartMicros, lo), min(k.StartMicros+k.DurMicros, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64
	end = lo
	for _, v := range ivs {
		if v.a < end {
			v.a = end
		}
		if v.b > v.a {
			total += v.b - v.a
			end = v.b
		}
	}
	return total
}
