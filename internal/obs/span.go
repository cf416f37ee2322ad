package obs

import (
	"sync/atomic"
	"time"
)

// Phase aggregates span-style regions of the pipeline ("cdg.verify",
// "sim.run", ...) into a phase table: span count, total and maximum wall
// duration, and a duration histogram shared under
// ebda_phase_duration_seconds{phase="name"}. Recording is a few atomic
// adds; there is no per-event storage.
type Phase struct {
	name   string
	parent string
	hist   *Histogram

	count      atomic.Uint64
	totalNanos atomic.Int64
	maxNanos   atomic.Int64
}

// Name returns the phase name.
func (p *Phase) Name() string { return p.name }

// Span is one open region of a phase. It is a small value — starting and
// ending a span allocates nothing. The zero Span is inert: End on it is a
// no-op, so spans can be threaded through code paths that only sometimes
// trace.
type Span struct {
	phase *Phase
	start time.Time
}

// Start opens a span.
//
//ebda:hotpath
func (p *Phase) Start() Span {
	return Span{phase: p, start: time.Now()} //ebda:allow detlint spans measure wall durations by design; snapshots separate timing from logic fields
}

// End closes the span, folding its wall duration into the phase table and
// the phase's duration histogram.
//
//ebda:hotpath
func (s Span) End() {
	p := s.phase
	if p == nil {
		return
	}
	d := time.Since(s.start) //ebda:allow detlint spans measure wall durations by design; snapshots separate timing from logic fields
	n := d.Nanoseconds()
	p.count.Add(1)
	p.totalNanos.Add(n)
	for {
		old := p.maxNanos.Load()
		if n <= old || p.maxNanos.CompareAndSwap(old, n) {
			break
		}
	}
	p.hist.Observe(d.Seconds())
}
