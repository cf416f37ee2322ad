package serve

import (
	"context"
	"sync"
	"time"

	"ebda/internal/obs/trace"
)

// flightGroup coalesces concurrent identical verifications onto one
// computation. Flights are keyed by a dual-hash identity from the
// cdg key family (cdg.VerifyKey, cdg.DeltaKey, cdg.ModeKey): two
// requests share a flight iff they would share a cache entry, so a
// coalesced verdict is exactly the verdict the joiner would have
// computed. The report type is generic — the /v1/verify pipeline
// flies cdg.Report, /v1/verify/graph flies cdg.ModeReport — with one
// group per report type so keys from different families never meet.
//
// A flight's computation is one admission-queue task: the leader
// submits it and waits like any joiner, and the worker that runs it
// publishes the result. It runs on a context detached from any single
// request: joiners may outlive the request that started the flight, so
// the computation is cancelled only when every interested waiter has
// left (a refcount), or when the flight-wide timeout fires. A flight is
// removed from the map before its result is published; by then the
// verify cache holds the report, so late arrivals hit the cache instead
// of a stale flight. An abandoned flight leaves the map at once, so a
// later request leads a fresh one rather than joining a cancelled one.
type flightGroup[R any] struct {
	mu sync.Mutex
	m  map[uint64]*flightCall[R]
}

type flightCall[R any] struct {
	key, check uint64
	done       chan struct{}
	cancel     context.CancelFunc
	refs       int
	// traceID names the leader's trace; joiners link their own traces to
	// it (the coalesced_with field at /debug/traces).
	traceID string
	rep     R
	err     error
}

func newFlightGroup[R any]() *flightGroup[R] {
	return &flightGroup[R]{m: make(map[uint64]*flightCall[R])}
}

// do returns the verification keyed (key, check), joining an in-flight
// computation when one exists and otherwise leading a new one: fn runs
// as one task handed to submit, under a context bounded by timeout and
// cancelled when no waiter remains. The leader bool reports which role
// this call played. fn's error (including context expiry) and a submit
// refusal propagate to every waiter of the flight. A waiter whose own
// ctx fires leaves early with ctx's error.
func (g *flightGroup[R]) do(ctx context.Context, key, check uint64, timeout time.Duration, submit func(task func()) error, fn func(context.Context) (R, error)) (R, bool, error) {
	lt := trace.FromContext(ctx)
	g.mu.Lock()
	c, ok := g.m[key]
	if ok && c.check == check {
		c.refs++
		leaderID := c.traceID
		g.mu.Unlock()
		lt.SetCoalescedWith(leaderID)
		return g.wait(ctx, c, false)
	}
	// A dual-hash collision (ok, with another check) is a distinct
	// verification sharing the 64-bit map key: it runs as an unregistered
	// call rather than coalesce onto (or displace) the other flight —
	// correctness over sharing.
	c = &flightCall[R]{key: key, check: check, done: make(chan struct{}), refs: 1, traceID: lt.ID()}
	if !ok {
		g.m[key] = c
	}
	g.mu.Unlock()
	// The flight deliberately detaches from the first caller's context:
	// later joiners must not lose the result because the first requester
	// hung up. Cancellation happens via refcount in wait(). The leader's
	// trace rides along so the task's spans land on it; the extra
	// reference keeps the trace out of the pool while the task may still
	// be recording after the leader's request finished.
	//ebda:allow ctxlint detached coalesced flight outlives its first caller
	fctx, cancel := context.WithTimeout(trace.NewContext(context.Background(), lt), timeout)
	c.cancel = cancel
	lt.Retain()
	qsp := lt.StartSpan("queue.wait")
	if err := submit(func() {
		qsp.End()
		rep, err := fn(fctx)
		g.finish(c, rep, err)
		lt.Release()
	}); err != nil {
		qsp.SetInt("rejected", 1)
		qsp.End()
		var zero R
		g.finish(c, zero, err)
		lt.Release()
	}
	return g.wait(ctx, c, true)
}

// finish publishes a flight's result to its waiters, unregistering the
// flight first unless it already left the map (abandoned, or a
// collision's unregistered call).
func (g *flightGroup[R]) finish(c *flightCall[R], rep R, err error) {
	c.cancel()
	g.mu.Lock()
	c.rep, c.err = rep, err
	if g.m[c.key] == c {
		delete(g.m, c.key)
	}
	g.mu.Unlock()
	close(c.done)
}

// wait blocks until the flight completes or the waiter's own context
// fires. A departing waiter drops its reference; the last one out
// cancels the computation and unregisters the flight — nobody is left
// to use the result.
func (g *flightGroup[R]) wait(ctx context.Context, c *flightCall[R], leader bool) (R, bool, error) {
	select {
	case <-c.done:
		return c.rep, leader, c.err
	case <-ctx.Done():
		g.mu.Lock()
		c.refs--
		abandon := c.refs == 0
		if abandon && g.m[c.key] == c {
			delete(g.m, c.key)
		}
		g.mu.Unlock()
		if abandon {
			c.cancel()
		}
		var zero R
		return zero, leader, ctx.Err()
	}
}
