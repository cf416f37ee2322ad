package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"ebda/internal/cdg"
)

// gatedFn returns a compute function that signals when it starts and
// blocks until released, counting invocations.
type gatedFn struct {
	started chan struct{}
	release chan struct{}
	mu      sync.Mutex
	calls   int
}

func newGatedFn() *gatedFn {
	return &gatedFn{started: make(chan struct{}, 16), release: make(chan struct{})}
}

func (g *gatedFn) fn(rep cdg.Report) func(context.Context) (cdg.Report, error) {
	return func(ctx context.Context) (cdg.Report, error) {
		g.mu.Lock()
		g.calls++
		g.mu.Unlock()
		g.started <- struct{}{}
		select {
		case <-g.release:
			return rep, nil
		case <-ctx.Done():
			return cdg.Report{}, ctx.Err()
		}
	}
}

func (g *gatedFn) callCount() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.calls
}

// runTask is a submit that admits every task and runs it at once on its
// own goroutine, standing in for an idle worker pool.
func runTask(task func()) error {
	go task()
	return nil
}

func TestFlightCoalescesIdenticalKeys(t *testing.T) {
	fg := newFlightGroup[cdg.Report]()
	gate := newGatedFn()
	want := cdg.Report{Network: "mesh 6x6", Channels: 4, Acyclic: true}

	type out struct {
		rep    cdg.Report
		leader bool
		err    error
	}
	results := make(chan out, 2)
	go func() {
		rep, leader, err := fg.do(context.Background(), 1, 2, time.Minute, runTask, gate.fn(want))
		results <- out{rep, leader, err}
	}()
	<-gate.started // the leader is computing

	go func() {
		rep, leader, err := fg.do(context.Background(), 1, 2, time.Minute, runTask, gate.fn(want))
		results <- out{rep, leader, err}
	}()
	// The joiner must not start a second computation; give it a moment
	// to (wrongly) do so before releasing the leader.
	for deadline := 0; ; deadline++ {
		fg.mu.Lock()
		refs := 0
		if c, ok := fg.m[1]; ok {
			refs = c.refs
		}
		fg.mu.Unlock()
		if refs == 2 {
			break
		}
		if deadline > 1000 {
			t.Fatal("joiner never joined the flight")
		}
		time.Sleep(time.Millisecond)
	}
	close(gate.release)

	leaders := 0
	for i := 0; i < 2; i++ {
		r := <-results
		if r.err != nil {
			t.Fatalf("flight error: %v", r.err)
		}
		if r.rep.Network != want.Network || !r.rep.Acyclic {
			t.Fatalf("wrong report: %+v", r.rep)
		}
		if r.leader {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("got %d leaders, want exactly 1", leaders)
	}
	if n := gate.callCount(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
}

func TestFlightCollisionComputesAlone(t *testing.T) {
	fg := newFlightGroup[cdg.Report]()
	gate := newGatedFn()
	go fg.do(context.Background(), 7, 100, time.Minute, runTask, gate.fn(cdg.Report{}))
	<-gate.started

	// Same key, different check hash: a dual-hash collision must not
	// share the other flight's verdict.
	rep, leader, err := fg.do(context.Background(), 7, 200, time.Minute, runTask,
		func(ctx context.Context) (cdg.Report, error) {
			return cdg.Report{Channels: 9}, nil
		})
	if err != nil || !leader || rep.Channels != 9 {
		t.Fatalf("collision path: rep=%+v leader=%v err=%v", rep, leader, err)
	}
	close(gate.release)
}

func TestFlightWaiterLeavesOnOwnDeadline(t *testing.T) {
	fg := newFlightGroup[cdg.Report]()
	gate := newGatedFn()
	want := cdg.Report{Channels: 3}

	done := make(chan error, 1)
	go func() {
		_, _, err := fg.do(context.Background(), 3, 4, time.Minute, runTask, gate.fn(want))
		done <- err
	}()
	<-gate.started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, leader, err := fg.do(ctx, 3, 4, time.Minute, runTask, gate.fn(want))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled joiner err = %v", err)
	}
	if leader {
		t.Fatal("joiner reported itself leader")
	}

	// The leader is unaffected by the joiner's departure.
	close(gate.release)
	if err := <-done; err != nil {
		t.Fatalf("leader err after joiner left: %v", err)
	}
	if n := gate.callCount(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
}

func TestFlightAbandonedWhenAllWaitersLeave(t *testing.T) {
	fg := newFlightGroup[cdg.Report]()
	computeCtx := make(chan context.Context, 1)
	started := make(chan struct{})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, _, err := fg.do(ctx, 5, 6, time.Minute, runTask, func(fctx context.Context) (cdg.Report, error) {
			computeCtx <- fctx
			close(started)
			<-fctx.Done()
			return cdg.Report{}, fctx.Err()
		})
		done <- err
	}()
	<-started
	cancel() // the only waiter leaves

	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("departing leader err = %v", err)
	}
	// With no waiter left, the flight cancels its compute context.
	fctx := <-computeCtx
	select {
	case <-fctx.Done():
	case <-time.After(5 * time.Second):
		t.Fatal("compute context never cancelled after all waiters left")
	}
}

func TestFlightRejectedSubmit(t *testing.T) {
	fg := newFlightGroup[cdg.Report]()
	refuse := func(func()) error { return ErrQueueFull }
	ran := false
	_, leader, err := fg.do(context.Background(), 8, 9, time.Minute, refuse,
		func(context.Context) (cdg.Report, error) {
			ran = true
			return cdg.Report{}, nil
		})
	if !errors.Is(err, ErrQueueFull) || !leader {
		t.Fatalf("refused flight: leader=%v err=%v, want the leader to get ErrQueueFull", leader, err)
	}
	if ran {
		t.Fatal("a refused flight ran its computation")
	}
	fg.mu.Lock()
	defer fg.mu.Unlock()
	if len(fg.m) != 0 {
		t.Fatalf("%d flights still registered after a refused submit", len(fg.m))
	}
}

func TestFlightRejoinAfterAbandon(t *testing.T) {
	fg := newFlightGroup[cdg.Report]()
	// park admits tasks without running them, like a busy worker pool.
	parked := make(chan func(), 2)
	park := func(task func()) error {
		parked <- task
		return nil
	}
	want := cdg.Report{Channels: 11}
	fn := func(fctx context.Context) (cdg.Report, error) {
		if err := fctx.Err(); err != nil {
			return cdg.Report{}, err
		}
		return want, nil
	}

	// The only waiter of the first flight leaves before its task runs.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := fg.do(ctx, 10, 11, time.Minute, park, fn); !errors.Is(err, context.Canceled) {
		t.Fatalf("departing waiter err = %v", err)
	}

	// A new request for the same key leads a fresh flight instead of
	// joining the cancelled one.
	type out struct {
		rep    cdg.Report
		leader bool
		err    error
	}
	abandoned := <-parked
	done := make(chan out, 1)
	go func() {
		rep, leader, err := fg.do(context.Background(), 10, 11, time.Minute, park, fn)
		done <- out{rep, leader, err}
	}()
	select {
	case fresh := <-parked:
		abandoned() // runs late on a dead context; must not disturb the fresh flight
		fresh()
	case <-time.After(5 * time.Second):
		abandoned() // no fresh task: the request joined the dead flight
	}
	r := <-done
	if r.err != nil || !r.leader || r.rep.Channels != want.Channels {
		t.Fatalf("rejoin after abandon: rep=%+v leader=%v err=%v, want its own result as leader", r.rep, r.leader, r.err)
	}
}
