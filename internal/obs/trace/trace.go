// Package trace is the request-scoped half of the observability layer:
// where obs aggregates every request into counters and phase tables,
// trace reconstructs one request's path through the serving pipeline as
// a tree of timed spans with typed attributes.
//
// A Tracer mints one Trace per request. The trace travels through the
// pipeline inside a context.Context (NewContext / FromContext), and the
// record path — FromContext, Trace.StartSpan, SpanRef.End and the
// attribute setters — is allocation-free, pinned by
// TestTraceRecordPathAllocFree the same way the obs record path is, so
// spans may be opened inside //ebda:hotpath functions (the hotpath
// analyzer restricts those functions to exactly this fast-path set).
//
// Every request records spans; sampling gates retention, not recording.
// When a trace finishes, the Tracer routes it: slow (past the
// SlowThreshold) and errored (5xx) traces always land in the flight
// recorder's slow lane, 1-in-SampleEvery traces land in the main lane,
// and everything else is reset and pooled. Remote fragments — traces
// joined from an X-Ebda-Trace header a peer sent along a cluster hop —
// are always retained, so a forwarded request's owner-side spans are
// available to merge with the edge replica's fragment at /debug/traces.
//
// Trace IDs are deterministic where possible: "<fragment>-<hexseq>"
// from a per-tracer sequence, so a sequential deterministic workload
// names its traces identically across runs. IDs are rendered lazily —
// an unretained, unpropagated trace never formats one.
package trace

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ebda/internal/obs"
)

// maxAttrs bounds the typed attributes one span carries.
const maxAttrs = 4

// DefaultMaxSpans is the per-trace span cap: spans recorded past it are
// counted as dropped, never stored (the record path stays bounded and
// allocation-free).
const DefaultMaxSpans = 64

// DefaultSlowThreshold is the always-capture latency bound when a
// Config leaves SlowThreshold zero.
const DefaultSlowThreshold = 250 * time.Millisecond

// Trace and recorder instrumentation. finished = retained{main} +
// retained{slow} + the traces released back to the pool.
var (
	obsFinished = obs.NewCounter("ebda_trace_finished_total",
		"request traces finished (retained or pooled)")
	obsRetainedMain = obs.NewCounter(obs.Label("ebda_trace_retained_total", "lane", "main"),
		"finished traces retained in the flight recorder's sampled main lane")
	obsRetainedSlow = obs.NewCounter(obs.Label("ebda_trace_retained_total", "lane", "slow"),
		"finished traces captured by the always-on slow/error lane")
	obsSpansDropped = obs.NewCounter("ebda_trace_spans_dropped_total",
		"spans dropped by the per-trace span cap")
	obsRemoteJoins = obs.NewCounter("ebda_trace_remote_joins_total",
		"traces joined from a propagated X-Ebda-Trace header")
	obsBadHeaders = obs.NewCounter("ebda_trace_bad_headers_total",
		"X-Ebda-Trace headers that failed to parse (a fresh trace was minted instead)")
)

// Attr is one typed span attribute. IsStr selects which value field
// carries it; keys and string values must be constants or otherwise
// already-allocated strings on the record path.
type Attr struct {
	Key   string
	Str   string
	Int   int64
	IsStr bool
}

// span is one timed region of a trace. Offsets are nanoseconds since
// the trace fragment started; end == 0 marks a span still open.
type span struct {
	name   string
	parent int32 // index of the enclosing span; -1 for the root
	start  int64
	end    int64
	attrs  [maxAttrs]Attr
	nattrs int8
}

// Trace is one request's recorded fragment: a bounded tree of spans plus
// the verdict metadata Finish stamps. All span recording goes through a
// mutex — only the flight-recorder ring is lock-free — so a flight's
// queued computation can keep recording on a worker while the handler
// finishes the trace.
type Trace struct {
	tracer      *Tracer
	seq         uint64
	fragment    string
	remote      bool // joined from a header; always retained
	start       time.Time
	sampled     bool
	refs        atomic.Int32
	retainedSeq atomic.Uint64 // recorder insertion order; 0 = not retained

	mu            sync.Mutex
	id            string // rendered lazily; pre-set for remote joins
	remoteParent  string // "fragment:index" of the propagating span
	spans         []span
	cur           int32 // innermost open span; -1 when none
	dropped       int
	status        int
	provenance    string
	coalesced     string // trace ID of the flight leader this request joined
	slow          bool
	durationNanos int64
}

// SpanRef addresses one recorded span. The zero SpanRef is inert: End
// and the setters on it are no-ops, so spans thread through paths that
// only sometimes trace (a nil Trace or a capped span buffer both hand
// back the zero ref).
type SpanRef struct {
	t   *Trace
	idx int32
}

// ID returns the trace ID, rendering it on first use. Safe on nil.
func (t *Trace) ID() string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.idLocked()
}

// idLocked renders the ID; every caller already holds t.mu.
func (t *Trace) idLocked() string {
	if t.id == "" { //ebda:allow locklint callers hold t.mu
		t.id = t.fragment + "-" + strconv.FormatUint(t.seq, 16) //ebda:allow locklint callers hold t.mu
	}
	return t.id //ebda:allow locklint callers hold t.mu
}

// Fragment returns the name of the replica that recorded this fragment.
func (t *Trace) Fragment() string {
	if t == nil {
		return ""
	}
	return t.fragment
}

// StartSpan opens a span under the innermost open span (the root when
// none is open) and returns its ref. Past the span cap the span is
// counted dropped and the zero ref comes back. Safe on nil.
//
//ebda:hotpath
func (t *Trace) StartSpan(name string) SpanRef {
	if t == nil {
		return SpanRef{}
	}
	t.mu.Lock()
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		t.mu.Unlock()
		obsSpansDropped.Inc()
		return SpanRef{}
	}
	idx := int32(len(t.spans))
	t.spans = append(t.spans, span{
		name:   name,
		parent: t.cur,
		start:  time.Since(t.start).Nanoseconds(), //ebda:allow detlint spans measure wall durations by design; canonical renderings zero them
	})
	t.cur = idx
	t.mu.Unlock()
	return SpanRef{t: t, idx: idx}
}

// End closes the span and restores its parent as the innermost open
// span. Ending twice keeps the first end time.
//
//ebda:hotpath
func (s SpanRef) End() {
	t := s.t
	if t == nil {
		return
	}
	t.mu.Lock()
	sp := &t.spans[s.idx]
	if sp.end == 0 {
		sp.end = time.Since(t.start).Nanoseconds() //ebda:allow detlint spans measure wall durations by design; canonical renderings zero them
	}
	if t.cur == s.idx {
		t.cur = sp.parent
	}
	t.mu.Unlock()
}

// SetInt attaches an integer attribute (dropped past the per-span cap).
//
//ebda:hotpath
func (s SpanRef) SetInt(key string, v int64) {
	t := s.t
	if t == nil {
		return
	}
	t.mu.Lock()
	sp := &t.spans[s.idx]
	if int(sp.nattrs) < maxAttrs {
		sp.attrs[sp.nattrs] = Attr{Key: key, Int: v}
		sp.nattrs++
	}
	t.mu.Unlock()
}

// SetStr attaches a string attribute. The value must already be
// allocated (a constant, a config field); the record path never formats.
//
//ebda:hotpath
func (s SpanRef) SetStr(key, v string) {
	t := s.t
	if t == nil {
		return
	}
	t.mu.Lock()
	sp := &t.spans[s.idx]
	if int(sp.nattrs) < maxAttrs {
		sp.attrs[sp.nattrs] = Attr{Key: key, Str: v, IsStr: true}
		sp.nattrs++
	}
	t.mu.Unlock()
}

// Header renders the X-Ebda-Trace value that names this span as the
// remote parent of a downstream fragment: "traceID/fragment/spanIndex".
// Empty for the zero ref.
func (s SpanRef) Header() string {
	t := s.t
	if t == nil {
		return ""
	}
	return t.ID() + "/" + t.fragment + "/" + strconv.FormatInt(int64(s.idx), 10)
}

// SetProvenance records which pipeline path answered the request.
func (t *Trace) SetProvenance(p string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.provenance = p
	t.mu.Unlock()
}

// SetCoalescedWith links this trace to the flight leader whose in-flight
// computation answered it.
func (t *Trace) SetCoalescedWith(leaderID string) {
	if t == nil || leaderID == "" {
		return
	}
	t.mu.Lock()
	t.coalesced = leaderID
	t.mu.Unlock()
}

// Retain takes an extra reference: the trace will not return to the
// pool until the matching Release. The flight group retains the leader's
// trace until its queued computation has published.
func (t *Trace) Retain() {
	if t != nil {
		t.refs.Add(1)
	}
}

// Release drops one reference; the last release of an unretained trace
// returns it to the tracer's pool. Traces held by the flight recorder
// are never pooled — the ring and any snapshot readers may still see
// them — and are left to the garbage collector once overwritten.
func (t *Trace) Release() {
	if t == nil {
		return
	}
	if t.refs.Add(-1) == 0 && t.retainedSeq.Load() == 0 {
		t.tracer.put(t)
	}
}

// Finish stamps the trace with the response status, routes it to the
// flight recorder (slow/error lane first, then the sampled main lane)
// and drops the minting reference. The trace must not be used by the
// finisher afterwards; a retained flight task may keep recording
// through its own reference.
func (t *Trace) Finish(status int) {
	if t == nil {
		return
	}
	tr := t.tracer
	t.mu.Lock()
	if status == 0 {
		status = 200
	}
	t.status = status
	t.durationNanos = time.Since(t.start).Nanoseconds() //ebda:allow detlint spans measure wall durations by design; canonical renderings zero them
	if len(t.spans) > 0 && t.spans[0].end == 0 {
		t.spans[0].end = t.durationNanos
	}
	slow := tr.slow > 0 && t.durationNanos >= int64(tr.slow)
	errored := status >= 500
	t.slow = slow || errored
	t.mu.Unlock()
	obsFinished.Inc()
	switch {
	case slow || errored:
		obsRetainedSlow.Inc()
		tr.rec.record(t, true)
	case t.sampled || t.remote:
		obsRetainedMain.Inc()
		tr.rec.record(t, false)
	}
	t.Release()
}

// Config parameterizes a Tracer.
type Config struct {
	// Fragment names this replica in trace IDs and propagation headers
	// (default "local").
	Fragment string
	// SampleEvery retains 1 in N finished traces in the recorder's main
	// lane (1 = every trace; 0 = none — the slow/error lane still
	// captures).
	SampleEvery int
	// SlowThreshold is the always-capture latency bound (0 = the
	// package default; negative disables latency-based capture — errored
	// requests still land in the slow lane).
	SlowThreshold time.Duration
	// MaxSpans caps spans per trace (0 = DefaultMaxSpans).
	MaxSpans int
	// Recorder receives retained traces (nil = DefaultRecorder).
	Recorder *Recorder
}

// Tracer mints, pools and routes traces for one replica.
type Tracer struct {
	fragment string
	every    uint64
	slow     time.Duration
	maxSpans int
	rec      *Recorder
	seq      atomic.Uint64
	pool     sync.Pool
}

// New builds a tracer from cfg (see the Config field docs for defaults).
func New(cfg Config) *Tracer {
	if cfg.Fragment == "" {
		cfg.Fragment = "local"
	}
	if cfg.SampleEvery < 0 {
		cfg.SampleEvery = 0
	}
	if cfg.SlowThreshold == 0 {
		cfg.SlowThreshold = DefaultSlowThreshold
	} else if cfg.SlowThreshold < 0 {
		cfg.SlowThreshold = 0
	}
	if cfg.MaxSpans <= 0 {
		cfg.MaxSpans = DefaultMaxSpans
	}
	if cfg.Recorder == nil {
		cfg.Recorder = DefaultRecorder
	}
	return &Tracer{
		fragment: cfg.Fragment,
		every:    uint64(cfg.SampleEvery),
		slow:     cfg.SlowThreshold,
		maxSpans: cfg.MaxSpans,
		rec:      cfg.Recorder,
	}
}

// Recorder returns the recorder retained traces land in.
func (tr *Tracer) Recorder() *Recorder { return tr.rec }

// Fragment returns the tracer's replica name.
func (tr *Tracer) Fragment() string { return tr.fragment }

// Start mints a trace with root as its root span.
func (tr *Tracer) Start(root string) *Trace {
	t := tr.get()
	t.refs.Store(1)
	t.seq = tr.seq.Add(1) - 1
	t.sampled = tr.every > 0 && t.seq%tr.every == 0
	t.start = time.Now() //ebda:allow detlint spans measure wall durations by design; canonical renderings zero them
	t.StartSpan(root)
	return t
}

// StartRemote joins the trace a peer propagated via an X-Ebda-Trace
// header: the new fragment shares the sender's trace ID and records the
// sender's span as its root's remote parent. Remote fragments are
// always retained — the edge replica decided this trace matters. An
// unparseable header falls back to a fresh local trace.
func (tr *Tracer) StartRemote(header, root string) *Trace {
	id, frag, idx, ok := ParseHeader(header)
	if !ok {
		obsBadHeaders.Inc()
		return tr.Start(root)
	}
	obsRemoteJoins.Inc()
	t := tr.get()
	t.refs.Store(1)
	t.seq = tr.seq.Add(1) - 1
	t.remote = true
	t.start = time.Now() //ebda:allow detlint spans measure wall durations by design; canonical renderings zero them
	t.mu.Lock()
	t.id = id
	t.remoteParent = frag + ":" + strconv.FormatInt(int64(idx), 10)
	t.mu.Unlock()
	t.StartSpan(root)
	return t
}

// get checks a reset trace out of the pool (or builds one with a full
// span buffer preallocated).
func (tr *Tracer) get() *Trace {
	if v := tr.pool.Get(); v != nil {
		return v.(*Trace)
	}
	return &Trace{
		tracer:   tr,
		fragment: tr.fragment,
		spans:    make([]span, 0, tr.maxSpans),
		cur:      -1,
	}
}

// put resets a trace and returns it to the pool.
func (tr *Tracer) put(t *Trace) {
	t.seq = 0
	t.remote = false
	t.sampled = false
	t.mu.Lock()
	t.id = ""
	t.remoteParent = ""
	t.spans = t.spans[:0]
	t.cur = -1
	t.dropped = 0
	t.status = 0
	t.provenance = ""
	t.coalesced = ""
	t.slow = false
	t.durationNanos = 0
	t.mu.Unlock()
	tr.pool.Put(t)
}
