package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"ebda/internal/cdg"
	"ebda/internal/obs"
	"ebda/internal/obs/trace"
	"ebda/internal/partstrat"
)

// Backpressure sentinels. Handlers map them to HTTP statuses
// (ErrQueueFull -> 429, ErrDraining -> 503); embedders that submit work
// directly can test for them with errors.Is.
var (
	ErrQueueFull = errors.New("serve: admission queue full")
	ErrDraining  = errors.New("serve: server draining")
)

// Config sizes the admission pipeline.
type Config struct {
	// Workers is the verification worker pool size (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds verifications admitted but not yet running
	// (default 64). Past it, requests get 429.
	QueueDepth int
	// Timeout bounds each request end to end (default 10s). It also
	// bounds a coalesced flight's computation.
	Timeout time.Duration
	// Jobs is always 1 once resolved: a verification runs serially and the
	// worker pool parallelizes across requests. The field stays so
	// harnesses can record it; any value a caller sets is ignored.
	Jobs int
	// Cluster, when non-nil, shards the verify-cache keyspace across a
	// replica ring (see cluster.go). Validate it before constructing the
	// server.
	Cluster *ClusterConfig
	// TraceSample retains 1 in N finished request traces in the flight
	// recorder's sampled main lane (default 16; negative disables
	// sampling — the slow/error lane still captures).
	TraceSample int
	// TraceSlow is the latency past which a request's trace is always
	// captured (default 250ms; negative disables latency-based capture —
	// 5xx traces are still captured).
	TraceSlow time.Duration
	// Tracer overrides the tracer built from TraceSample/TraceSlow.
	// Harnesses running several replicas in one process give each its
	// own fragment name and share a recorder.
	Tracer *trace.Tracer
	// Metrics supplies this replica's snapshot for /v1/peer/metrics and
	// the /v1/cluster/metrics fan-out (default: the process-wide
	// obs.Default registry).
	Metrics func() obs.Snapshot
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Timeout <= 0 {
		c.Timeout = 10 * time.Second
	}
	c.Jobs = 1
	if c.TraceSample == 0 {
		c.TraceSample = 16
	}
	if c.TraceSlow == 0 {
		c.TraceSlow = trace.DefaultSlowThreshold
	}
	if c.Metrics == nil {
		c.Metrics = func() obs.Snapshot { return obs.Default.Snapshot() }
	}
	return c
}

// Resolved returns the configuration with defaults applied: the worker
// pool size, queue depth and timeout the server actually
// runs with. Benchmark harnesses record it so snapshots never carry the
// zero-sentinels of an unconfigured field.
func (c Config) Resolved() Config { return c.withDefaults() }

// Server is the verification service: decoded requests are admitted to a
// bounded queue, executed by a fixed worker pool through the cached
// context-aware verify path, and coalesced through a singleflight group.
// Create with New, mount with Register, stop with Shutdown.
type Server struct {
	cfg     Config
	nets    *networkCache
	cache   *cdg.VerifyCache
	modes   *cdg.ModeCache
	flight  *flightGroup[cdg.Report]
	gflight *flightGroup[cdg.ModeReport]
	cluster *clusterPeers // nil outside cluster mode
	tracer  *trace.Tracer
	queue   chan func()
	workers sync.WaitGroup

	mu       sync.RWMutex
	draining bool
}

// New starts the worker pool and returns a ready server. It serves
// through cdg.DefaultCache, so verdicts are shared with any in-process
// engine user.
func New(cfg Config) *Server {
	return newServer(cfg, cdg.DefaultCache)
}

// NewReplica is New against an explicit cache. Cluster harnesses run
// several replicas in one process; each needs a private cache for the
// ring's ownership semantics to be observable (and testable).
func NewReplica(cfg Config, cache *cdg.VerifyCache) *Server {
	return newServer(cfg, cache)
}

// newServer is New against an explicit cache (tests isolate themselves
// from the process-wide one). It panics on an invalid cluster config —
// callers validate with ClusterConfig.Validate before constructing.
func newServer(cfg Config, cache *cdg.VerifyCache) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:     cfg,
		nets:    newNetworkCache(),
		cache:   cache,
		modes:   cdg.DefaultModeCache,
		flight:  newFlightGroup[cdg.Report](),
		gflight: newFlightGroup[cdg.ModeReport](),
		queue:   make(chan func(), cfg.QueueDepth),
	}
	if cfg.Cluster != nil {
		s.cluster = newClusterPeers(cfg.Cluster)
	}
	if s.tracer = cfg.Tracer; s.tracer == nil {
		fragment := "local"
		if cfg.Cluster != nil {
			fragment = cfg.Cluster.Self
		}
		s.tracer = trace.New(trace.Config{
			Fragment:      fragment,
			SampleEvery:   cfg.TraceSample,
			SlowThreshold: cfg.TraceSlow,
		})
	}
	s.workers.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go func() {
			defer s.workers.Done()
			for task := range s.queue {
				task()
			}
		}()
	}
	return s
}

// Register mounts the API on mux.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("/v1/verify", s.handleVerify)
	mux.HandleFunc("/v1/verify/delta", s.handleDelta)
	mux.HandleFunc("/v1/verify/graph", s.handleGraph)
	mux.HandleFunc("/v1/design", s.handleDesign)
	mux.HandleFunc("/v1/batch", s.handleBatch)
	mux.HandleFunc("GET /v1/peer/lookup/{key}", s.handlePeerLookup)
	mux.HandleFunc("GET /v1/peer/metrics", s.handlePeerMetrics)
	mux.HandleFunc("GET /v1/cluster/metrics", s.handleClusterMetrics)
}

// Tracer returns the tracer this server mints request traces from.
func (s *Server) Tracer() *trace.Tracer { return s.tracer }

// statusWriter remembers the first status a handler wrote, so the
// request's trace can be finished with it.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

// startTrace mints the request's trace — joining the distributed trace
// a peer propagated when the request carries an X-Ebda-Trace header —
// and threads it through the request context, wrapping the response
// writer so Finish sees the status the handler wrote.
func (s *Server) startTrace(w http.ResponseWriter, r *http.Request, root string) (*trace.Trace, *statusWriter, *http.Request) {
	var t *trace.Trace
	if h := r.Header.Get(trace.Header); h != "" {
		t = s.tracer.StartRemote(h, root)
	} else {
		t = s.tracer.Start(root)
	}
	return t, &statusWriter{ResponseWriter: w}, r.WithContext(trace.NewContext(r.Context(), t))
}

// Ready reports whether the server accepts new work; it is the /readyz
// gate. It flips false permanently once Shutdown begins.
func (s *Server) Ready() bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return !s.draining
}

// Shutdown drains the server: new submissions get ErrDraining (503)
// immediately, queued and running verifications finish, and the worker
// pool exits. It returns when the pool is idle or ctx fires, and is safe
// to call more than once.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	if !already {
		// No submitter can be sending now: submit holds the read lock
		// across its check-and-send, and every lock acquired after the
		// write above observes draining.
		close(s.queue)
	}
	idle := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// submit admits one task to the queue without blocking: a full queue is
// load the server must shed, not buffer.
func (s *Server) submit(task func()) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.draining {
		return ErrDraining
	}
	select {
	case s.queue <- task:
		obsQueueDepth.Add(1)
		return nil
	default:
		return ErrQueueFull
	}
}

// Verdict provenance values (the VerifyResponse.Provenance field).
const (
	provCache     = "cache"
	provComputed  = "computed"
	provCoalesced = "coalesced"
	provDelta     = "delta"
)

// verdict produces one verdict for q: cache probe first, then a
// coalesced flight whose leader computes on a queue worker. The
// provenance string reports which path answered; lead is the leader's
// ("delta" when the verdict came from a retained workspace's region
// re-peel, "computed" otherwise). Every endpoint's verdicts — full,
// delta and graph mode — flow through here.
func verdict[R any](ctx context.Context, s *Server, c *cdg.Cache[R], fg *flightGroup[R], q cdg.Query[R], lead string) (R, string, error) {
	tc := trace.FromContext(ctx)
	lsp := tc.StartSpan("cache.lookup")
	if rep, ok := c.Lookup(q.Key, q.Check); ok {
		lsp.SetInt("hit", 1)
		lsp.End()
		obsVerdictCache.Inc()
		return rep, provCache, nil
	}
	lsp.SetInt("hit", 0)
	lsp.End()
	fsp := tc.StartSpan("flight")
	defer fsp.End()
	rep, leader, err := fg.do(ctx, q.Key, q.Check, s.cfg.Timeout, func(fctx context.Context) (R, error) {
		return compute(fctx, s, c, q)
	})
	switch {
	case err != nil:
		return rep, "", err
	case !leader:
		fsp.SetStr("role", "follower")
		obsVerdictCoalesced.Inc()
		return rep, provCoalesced, nil
	}
	fsp.SetStr("role", "leader")
	if lead == provDelta {
		obsVerdictDelta.Inc()
	} else {
		obsVerdictComputed.Inc()
	}
	return rep, lead, nil
}

// compute answers q through the cache on a queue worker under ctx,
// reporting admission failures to the caller.
func compute[R any](ctx context.Context, s *Server, c *cdg.Cache[R], q cdg.Query[R]) (R, error) {
	type result struct {
		rep R
		err error
	}
	res := make(chan result, 1)
	// The queued task may outlive the trace's Finish (an abandoned
	// deadline); the extra reference keeps the trace out of the pool
	// until the task's spans have landed.
	tc := trace.FromContext(ctx)
	tc.Retain()
	qsp := tc.StartSpan("queue.wait")
	err := s.submit(func() {
		qsp.End()
		obsQueueDepth.Add(-1)
		rep, err := c.Verify(ctx, q)
		res <- result{rep, err}
		tc.Release()
	})
	var zero R
	if err != nil {
		qsp.SetInt("rejected", 1)
		qsp.End()
		tc.Release()
		return zero, err
	}
	select {
	case r := <-res:
		return r.rep, r.err
	case <-ctx.Done():
		// The queued task still runs (quickly, its context is dead) and
		// parks its result in the buffered channel for the collector.
		return zero, ctx.Err()
	}
}

// statusFor maps pipeline errors to HTTP statuses and counts the
// rejection.
func statusFor(err error) int {
	switch {
	case errors.Is(err, cdg.ErrBadDiff):
		obsRejectBad.Inc()
		return http.StatusBadRequest
	case errors.Is(err, ErrQueueFull):
		obsRejectQueue.Inc()
		return http.StatusTooManyRequests
	case errors.Is(err, ErrDraining):
		obsRejectDrain.Inc()
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		obsRejectDeadline.Inc()
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		// The client went away; nobody reads this response.
		return http.StatusServiceUnavailable
	default:
		return http.StatusInternalServerError
	}
}

// errorBody is the JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorBody{Error: msg})
}

// verifyOne runs one built request end to end.
func (s *Server) verifyOne(ctx context.Context, b *builtVerify) (*VerifyResponse, int, error) {
	rep, prov, err := verdict(ctx, s, s.cache, s.flight, b.q, provComputed)
	if err != nil {
		return nil, statusFor(err), err
	}
	return respondVerify(b, verdictFields(rep), prov), http.StatusOK, nil
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	obsReqVerify.Inc()
	t, sw, r := s.startTrace(w, r, "serve.verify")
	defer func() { t.Finish(sw.status) }()
	w = sw
	sp := phaseServeVerify.Start()
	defer sp.End()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	// The raw body is retained: cluster mode may replay it verbatim to
	// the owning replica.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		obsRejectBad.Inc()
		writeError(w, http.StatusBadRequest, sanitizeErr(err))
		return
	}
	req, err := DecodeVerifyRequest(bytes.NewReader(body))
	if err != nil {
		obsRejectBad.Inc()
		writeError(w, http.StatusBadRequest, sanitizeErr(err))
		return
	}
	b, err := req.build(s.nets)
	if err != nil {
		obsRejectBad.Inc()
		writeError(w, http.StatusBadRequest, sanitizeErr(err))
		return
	}
	reply := func(v *PeerLookupResponse, prov string) any { return respondVerify(b, v, prov) }
	if s.route(w, r, b.q, "/v1/verify", body, reply, &VerifyResponse{}) {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	resp, status, err := s.verifyOne(ctx, b)
	if err != nil {
		writeError(w, status, sanitizeErr(err))
		return
	}
	t.SetProvenance(resp.Provenance)
	writeJSON(w, status, resp)
}

func (s *Server) handleDelta(w http.ResponseWriter, r *http.Request) {
	obsReqDelta.Inc()
	t, sw, r := s.startTrace(w, r, "serve.delta")
	defer func() { t.Finish(sw.status) }()
	w = sw
	sp := phaseServeDelta.Start()
	defer sp.End()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		obsRejectBad.Inc()
		writeError(w, http.StatusBadRequest, sanitizeErr(err))
		return
	}
	req, err := DecodeDeltaRequest(bytes.NewReader(body))
	if err != nil {
		obsRejectBad.Inc()
		writeError(w, http.StatusBadRequest, sanitizeErr(err))
		return
	}
	b, err := req.Base.build(s.nets)
	if err != nil {
		obsRejectBad.Inc()
		writeError(w, http.StatusBadRequest, sanitizeErr(err))
		return
	}
	baseKey := b.q.Key
	if req.BaseKey != "" {
		want, perr := strconv.ParseUint(req.BaseKey, 16, 64)
		if perr != nil || want != baseKey {
			obsRejectBad.Inc()
			writeError(w, http.StatusBadRequest,
				"base_key "+req.BaseKey+" does not match the base design (key "+
					strconv.FormatUint(baseKey, 16)+")")
			return
		}
	}
	diff, err := req.buildDiff(b)
	if err != nil {
		obsRejectBad.Inc()
		writeError(w, http.StatusBadRequest, sanitizeErr(err))
		return
	}
	q := cdg.DeltaQuery(b.net, b.vcs, b.ts, diff)
	reply := func(v *PeerLookupResponse, prov string) any { return respondDelta(v, prov, q.Key, baseKey) }
	if s.route(w, r, q, "/v1/verify/delta", body, reply, &DeltaResponse{}) {
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	rep, prov, err := verdict(ctx, s, s.cache, s.flight, q, provDelta)
	if err != nil {
		writeError(w, statusFor(err), sanitizeErr(err))
		return
	}
	t.SetProvenance(prov)
	writeJSON(w, http.StatusOK, reply(verdictFields(rep), prov))
}

func (s *Server) handleDesign(w http.ResponseWriter, r *http.Request) {
	obsReqDesign.Inc()
	t, sw, r := s.startTrace(w, r, "serve.design")
	defer func() { t.Finish(sw.status) }()
	w = sw
	sp := phaseServeDesign.Start()
	defer sp.End()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req DesignRequest
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, MaxBodyBytes), &req); err != nil {
		obsRejectBad.Inc()
		writeError(w, http.StatusBadRequest, sanitizeErr(err))
		return
	}
	if err := req.validate(); err != nil {
		obsRejectBad.Inc()
		writeError(w, http.StatusBadRequest, sanitizeErr(err))
		return
	}
	chains, err := partstrat.Derive(partstrat.ArrangementFor(req.VCs))
	if err != nil {
		obsRejectBad.Inc()
		writeError(w, http.StatusBadRequest, sanitizeErr(err))
		return
	}
	max := req.Max
	if max <= 0 || max > maxDesignOptions {
		max = maxDesignOptions
	}
	net := req.designNet(s.nets)
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	resp := DesignResponse{Network: net.String(), Derived: len(chains)}
	for _, chain := range chains {
		if len(resp.Options) >= max {
			break
		}
		vcs, ts := cdg.VCConfigFor(net.Dims(), chain.Channels()), chain.AllTurns()
		rep, prov, err := verdict(ctx, s, s.cache, s.flight, cdg.TurnSetQuery(net, vcs, ts), provComputed)
		if err != nil {
			writeError(w, statusFor(err), sanitizeErr(err))
			return
		}
		resp.Options = append(resp.Options, DesignOption{
			Chain:      chain.PlainString(),
			Channels:   rep.Channels,
			Acyclic:    rep.Acyclic,
			Provenance: prov,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	obsReqBatch.Inc()
	t, sw, r := s.startTrace(w, r, "serve.batch")
	defer func() { t.Finish(sw.status) }()
	w = sw
	sp := phaseServeBatch.Start()
	defer sp.End()
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	var req BatchRequest
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, MaxBodyBytes), &req); err != nil {
		obsRejectBad.Inc()
		writeError(w, http.StatusBadRequest, sanitizeErr(err))
		return
	}
	if len(req.Requests) == 0 {
		obsRejectBad.Inc()
		writeError(w, http.StatusBadRequest, "requests is empty")
		return
	}
	if len(req.Requests) > maxBatch {
		obsRejectBad.Inc()
		writeError(w, http.StatusBadRequest,
			"batch has "+strconv.Itoa(len(req.Requests))+" requests, limit "+strconv.Itoa(maxBatch))
		return
	}
	// One deadline covers the whole batch; items run in request order so
	// a batch's results are deterministic (repeats after the first hit
	// the cache). Per-item failures stay per-item — a batch is a
	// convenience wrapper, not a transaction.
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
	defer cancel()
	resp := BatchResponse{Results: make([]BatchResult, len(req.Requests))}
	for i := range req.Requests {
		item := &req.Requests[i]
		if err := item.validate(); err != nil {
			resp.Results[i] = BatchResult{Error: sanitizeErr(err), Status: http.StatusBadRequest}
			continue
		}
		b, err := item.build(s.nets)
		if err != nil {
			resp.Results[i] = BatchResult{Error: sanitizeErr(err), Status: http.StatusBadRequest}
			continue
		}
		ok, status, err := s.verifyOne(ctx, b)
		if err != nil {
			resp.Results[i] = BatchResult{Error: sanitizeErr(err), Status: status}
			continue
		}
		resp.Results[i] = BatchResult{OK: ok}
	}
	writeJSON(w, http.StatusOK, resp)
}
