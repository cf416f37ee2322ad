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

// Server is the verification service: a cache miss is coalesced through
// a singleflight group whose one computation is admitted to a bounded
// queue and executed by a fixed worker pool through the cached
// context-aware verify path. Create with New, mount with Register, stop
// with Shutdown.
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
				obsQueueDepth.Add(-1)
				task()
			}
		}()
	}
	return s
}

// Register mounts the API on mux.
func (s *Server) Register(mux *http.ServeMux) {
	mux.HandleFunc("/v1/verify", s.handle("serve.verify", obsReqVerify, phaseServeVerify, s.serveVerify))
	mux.HandleFunc("/v1/verify/delta", s.handle("serve.delta", obsReqDelta, phaseServeDelta, s.serveDelta))
	mux.HandleFunc("/v1/verify/graph", s.handle("serve.graph", obsReqGraph, phaseServeGraph, s.serveGraph))
	mux.HandleFunc("/v1/design", s.handle("serve.design", obsReqDesign, phaseServeDesign, s.serveDesign))
	mux.HandleFunc("/v1/batch", s.handle("serve.batch", obsReqBatch, phaseServeBatch, s.serveBatch))
	mux.HandleFunc("GET /v1/peer/lookup/{key}", s.handle("peer.lookup", obsReqPeerLookup, nil, s.servePeerLookup))
	mux.HandleFunc("GET /v1/peer/metrics", s.handlePeerMetrics)
	mux.HandleFunc("GET /v1/cluster/metrics", s.handle("cluster.metrics", obsReqClusterMetrics, nil, s.serveClusterMetrics))
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

// endpoint is one traced handler's own work: decode the request, build
// its query and answer it under ctx, which carries the request's trace
// and deadline. It returns the 200 answer and the verdict's provenance
// ("" when the answer is not one verdict), or an error for the adapter
// to map to a status.
type endpoint func(ctx context.Context, w http.ResponseWriter, r *http.Request) (any, string, error)

// handle adapts an endpoint to net/http. It owns what every traced
// handler shares: the request counter, the request's trace (finished
// with the status written), the endpoint's serve.* phase and POST check,
// the per-request deadline and the mapping from error to status. phase
// is nil for the GET-only cluster endpoints: they time no phase, and
// their mux patterns already check the method.
func (s *Server) handle(root string, requests *obs.Counter, phase *obs.Phase, serve endpoint) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		requests.Inc()
		// Join the distributed trace a peer propagated, if any, and
		// thread the request's trace through its context.
		var t *trace.Trace
		if h := r.Header.Get(trace.Header); h != "" {
			t = s.tracer.StartRemote(h, root)
		} else {
			t = s.tracer.Start(root)
		}
		r = r.WithContext(trace.NewContext(r.Context(), t))
		sw := &statusWriter{ResponseWriter: w}
		defer func() { t.Finish(sw.status) }()
		if phase != nil {
			sp := phase.Start()
			defer sp.End()
			if r.Method != http.MethodPost {
				writeJSON(sw, http.StatusMethodNotAllowed, errorBody{Error: "POST only"})
				return
			}
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
		defer cancel()
		resp, prov, err := serve(ctx, sw, r)
		if err != nil {
			writeFailure(sw, err)
			return
		}
		if prov != "" {
			t.SetProvenance(prov)
		}
		writeJSON(sw, http.StatusOK, resp)
	}
}

// badRequest marks a client error: a body that does not decode or
// validate, or a design the network cannot carry. It answers 400 and
// counts as bad_request.
type badRequest struct{ error }

// bad is an endpoint's return for a client error.
func bad(err error) (any, string, error) { return nil, "", badRequest{err} }

// answered is a whole non-200 answer, written as is and counted nowhere:
// an owner's rejection of a forwarded request, relayed verbatim, or a
// peer lookup's miss.
type answered struct {
	status int
	body   []byte
}

func (a *answered) Error() string { return "serve: answered " + strconv.Itoa(a.status) }

// writeFailure answers a failed request: an answered error as is,
// anything else as the JSON error envelope under statusFor's status.
func writeFailure(w http.ResponseWriter, err error) {
	var a *answered
	if errors.As(err, &a) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		w.WriteHeader(a.status)
		w.Write(a.body)
		return
	}
	writeJSON(w, statusFor(err), errorBody{Error: sanitizeErr(err)})
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

// answer is the one path a cdg.Report verdict takes to a client: the
// cache probe, then — for a client request (r non-nil) whose key
// another replica owns — the cluster route, then a coalesced flight
// whose computation is one queue task. The verdict comes back in
// peer-lookup form with its provenance; lead is the leader's ("delta"
// when the verdict came from a retained delta workspace, "computed"
// otherwise). Batch items and design options pass no request: they are
// answered here, never routed.
func (s *Server) answer(ctx context.Context, q cdg.Query[cdg.Report], lead string, r *http.Request, body []byte) (*PeerLookupResponse, string, error) {
	owner := s.remoteOwner(q.Key, r)
	if rep, ok := lookup(ctx, s.cache, q.Key, q.Check); ok {
		obsVerdictCache.Inc()
		return verdictFields(rep), provCache, nil
	}
	if owner != "" {
		if v, prov, err := s.route(ctx, owner, q, r.URL.Path, body); v != nil || err != nil {
			return v, prov, err
		}
	}
	rep, prov, err := fly(ctx, s, s.cache, s.flight, q, lead)
	if err != nil {
		return nil, "", err
	}
	return verdictFields(rep), prov, nil
}

// lookup probes c under a cache.lookup span.
func lookup[R any](ctx context.Context, c *cdg.Cache[R], key, check uint64) (R, bool) {
	sp := trace.FromContext(ctx).StartSpan("cache.lookup")
	rep, ok := c.Lookup(key, check)
	if ok {
		sp.SetInt("hit", 1)
	} else {
		sp.SetInt("hit", 0)
	}
	sp.End()
	return rep, ok
}

// fly answers a cache miss through a coalesced flight whose
// computation is one queue task, reporting which role answered.
func fly[R any](ctx context.Context, s *Server, c *cdg.Cache[R], fg *flightGroup[R], q cdg.Query[R], lead string) (R, string, error) {
	fsp := trace.FromContext(ctx).StartSpan("flight")
	defer fsp.End()
	rep, leader, err := fg.do(ctx, q.Key, q.Check, s.cfg.Timeout, s.submit, func(fctx context.Context) (R, error) {
		return c.Verify(fctx, q)
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

// statusFor maps pipeline errors to HTTP statuses and counts the
// rejection.
func statusFor(err error) int {
	switch {
	case errors.As(err, new(badRequest)), errors.Is(err, cdg.ErrBadDiff):
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

func (s *Server) serveVerify(ctx context.Context, w http.ResponseWriter, r *http.Request) (any, string, error) {
	// The raw body is retained: cluster mode may replay it verbatim to
	// the owning replica.
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		return bad(err)
	}
	req, err := DecodeVerifyRequest(bytes.NewReader(body))
	if err != nil {
		return bad(err)
	}
	b, err := req.build(s.nets)
	if err != nil {
		return bad(err)
	}
	v, prov, err := s.answer(ctx, b.q, provComputed, r, body)
	if err != nil {
		return nil, "", err
	}
	return respondVerify(b, v, prov), prov, nil
}

func (s *Server) serveDelta(ctx context.Context, w http.ResponseWriter, r *http.Request) (any, string, error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	if err != nil {
		return bad(err)
	}
	req, err := DecodeDeltaRequest(bytes.NewReader(body))
	if err != nil {
		return bad(err)
	}
	q, baseKey, err := req.build(s.nets)
	if err != nil {
		return bad(err)
	}
	v, prov, err := s.answer(ctx, q, provDelta, r, body)
	if err != nil {
		return nil, "", err
	}
	return respondDelta(v, prov, q.Key, baseKey), prov, nil
}

func (s *Server) serveDesign(ctx context.Context, w http.ResponseWriter, r *http.Request) (any, string, error) {
	var req DesignRequest
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, MaxBodyBytes), &req); err != nil {
		return bad(err)
	}
	if err := req.validate(); err != nil {
		return bad(err)
	}
	chains, err := partstrat.Derive(partstrat.ArrangementFor(req.VCs))
	if err != nil {
		return bad(err)
	}
	max := req.Max
	if max <= 0 || max > maxDesignOptions {
		max = maxDesignOptions
	}
	net := req.designNet(s.nets)
	resp := &DesignResponse{Network: net.String(), Derived: len(chains)}
	for _, chain := range chains {
		if len(resp.Options) >= max {
			break
		}
		vcs, ts := cdg.VCConfigFor(net.Dims(), chain.Channels()), chain.AllTurns()
		v, prov, err := s.answer(ctx, cdg.TurnSetQuery(net, vcs, ts), provComputed, nil, nil)
		if err != nil {
			return nil, "", err
		}
		resp.Options = append(resp.Options, DesignOption{
			Chain:      chain.PlainString(),
			Channels:   v.Channels,
			Acyclic:    v.Acyclic,
			Provenance: prov,
		})
	}
	return resp, "", nil
}

func (s *Server) serveBatch(ctx context.Context, w http.ResponseWriter, r *http.Request) (any, string, error) {
	var req BatchRequest
	if err := decodeStrict(http.MaxBytesReader(w, r.Body, MaxBodyBytes), &req); err != nil {
		return bad(err)
	}
	if len(req.Requests) == 0 {
		return bad(errors.New("requests is empty"))
	}
	if len(req.Requests) > maxBatch {
		return bad(errors.New("batch has " + strconv.Itoa(len(req.Requests)) + " requests, limit " + strconv.Itoa(maxBatch)))
	}
	// One deadline covers the whole batch; items run in request order so
	// a batch's results are deterministic (repeats after the first hit
	// the cache). Per-item failures stay per-item — a batch is a
	// convenience wrapper, not a transaction.
	resp := &BatchResponse{Results: make([]BatchResult, len(req.Requests))}
	for i := range req.Requests {
		resp.Results[i] = s.batchItem(ctx, &req.Requests[i])
	}
	return resp, "", nil
}

// batchItem answers one batch entry. A client error is the item's 400
// and counts as no rejection: the batch itself was answered.
func (s *Server) batchItem(ctx context.Context, item *VerifyRequest) BatchResult {
	var b *builtVerify
	err := item.validate()
	if err == nil {
		b, err = item.build(s.nets)
	}
	if err != nil {
		return BatchResult{Error: sanitizeErr(err), Status: http.StatusBadRequest}
	}
	v, prov, err := s.answer(ctx, b.q, provComputed, nil, nil)
	if err != nil {
		return BatchResult{Error: sanitizeErr(err), Status: statusFor(err)}
	}
	return BatchResult{OK: respondVerify(b, v, prov)}
}
