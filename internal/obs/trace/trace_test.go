package trace

import (
	"context"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestTracer(cfg Config) *Tracer {
	if cfg.Recorder == nil {
		cfg.Recorder = NewRecorder(8, 4)
	}
	return New(cfg)
}

// mallocs calls f n times under GOMAXPROCS(1) and returns the number of
// heap allocations the n calls made in total. testing.AllocsPerRun divides
// that total by n in integers, so it reads 0 for up to n-1 stray
// allocations; here every one counts. It makes no warm-up call: a test
// writes its warm-up out.
//
// The count is process-wide, so the collector is off for the calls: that
// leaves the runtime's background scavenger no goal, and it parks instead
// of re-arming its sleep timer, whose insertion into the timer heap
// (runtime.(*timers).addHeap) can allocate inside the measured window.
func mallocs(n int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs
}

// TestTraceRecordPathAllocFree pins the zero-alloc contract of the
// record path: once a trace is minted, FromContext, StartSpan, End and
// the attribute setters must not allocate — they run inside
// //ebda:hotpath functions in cdg and serve.
func TestTraceRecordPathAllocFree(t *testing.T) {
	tr := newTestTracer(Config{SampleEvery: 1})
	tc := tr.Start("root")
	defer tc.Finish(200)
	ctx := NewContext(context.Background(), tc)

	n := mallocs(200, func() {
		got := FromContext(ctx)
		sp := got.StartSpan("work")
		sp.SetInt("n", 42)
		sp.SetStr("kind", "test")
		sp.End()
		// Rewind so the bounded span buffer never fills; the reset is
		// slice-shrinking only, no allocation.
		got.mu.Lock()
		got.spans = got.spans[:1]
		got.cur = 0
		got.mu.Unlock()
	})
	if n != 0 {
		t.Fatalf("200 record-path rounds allocated %d times, want 0", n)
	}
}

func TestSpanTreeNesting(t *testing.T) {
	tr := newTestTracer(Config{SampleEvery: 1})
	tc := tr.Start("root")
	a := tc.StartSpan("a")
	b := tc.StartSpan("b") // nests under a
	b.End()
	c := tc.StartSpan("c") // back under a
	c.End()
	a.End()
	d := tc.StartSpan("d") // under root again
	d.End()
	tc.Finish(0)

	got := tr.Recorder().Snapshot()
	if len(got) != 1 {
		t.Fatalf("recorder holds %d traces, want 1", len(got))
	}
	tj := got[0].Export()
	wantParents := map[string]string{
		"root": "",
		"a":    "root",
		"b":    "a",
		"c":    "a",
		"d":    "root",
	}
	if len(tj.Spans) != len(wantParents) {
		t.Fatalf("got %d spans, want %d: %+v", len(tj.Spans), len(wantParents), tj.Spans)
	}
	name := make(map[string]string, len(tj.Spans))
	for _, sp := range tj.Spans {
		name[sp.ID] = sp.Name
	}
	for _, sp := range tj.Spans {
		if want := wantParents[sp.Name]; name[sp.Parent] != want {
			t.Errorf("span %q parent = %q, want %q", sp.Name, name[sp.Parent], want)
		}
	}
	if tj.Status != 200 {
		t.Errorf("Finish(0) status = %d, want 200", tj.Status)
	}
}

func TestSpanCapDrops(t *testing.T) {
	tr := newTestTracer(Config{SampleEvery: 1, MaxSpans: 4})
	tc := tr.Start("root")
	for i := 0; i < 10; i++ {
		sp := tc.StartSpan("filler")
		sp.End()
	}
	tc.Finish(200)
	tj := tr.Recorder().Snapshot()[0].Export()
	if len(tj.Spans) != 4 {
		t.Fatalf("got %d spans, want 4 (cap)", len(tj.Spans))
	}
	if tj.DroppedSpans != 7 {
		t.Fatalf("dropped = %d, want 7", tj.DroppedSpans)
	}
}

func TestSamplingGatesRetentionNotRecording(t *testing.T) {
	rec := NewRecorder(16, 4)
	tr := newTestTracer(Config{SampleEvery: 4, Recorder: rec})
	for i := 0; i < 8; i++ {
		tc := tr.Start("root")
		sp := tc.StartSpan("work") // recording always works
		sp.End()
		tc.Finish(200)
	}
	if got := len(rec.Snapshot()); got != 2 {
		t.Fatalf("retained %d traces of 8 at SampleEvery=4, want 2", got)
	}
}

func TestSlowLaneCapturesPastThreshold(t *testing.T) {
	rec := NewRecorder(8, 4)
	// SampleEvery 0: only the slow lane can retain.
	tr := newTestTracer(Config{SampleEvery: 0, SlowThreshold: time.Nanosecond, Recorder: rec})
	tc := tr.Start("root")
	tc.Finish(200)
	got := rec.Snapshot()
	if len(got) != 1 {
		t.Fatalf("slow lane captured %d traces, want 1", len(got))
	}
	if !got[0].Export().Slow {
		t.Fatalf("captured trace not marked slow")
	}
}

func TestSlowLaneCapturesErrors(t *testing.T) {
	rec := NewRecorder(8, 4)
	// Latency capture disabled; errors must still be captured.
	tr := newTestTracer(Config{SampleEvery: 0, SlowThreshold: -1, Recorder: rec})
	ok := tr.Start("root")
	ok.Finish(200)
	bad := tr.Start("root")
	bad.Finish(503)
	got := rec.Snapshot()
	if len(got) != 1 {
		t.Fatalf("captured %d traces, want only the 5xx one", len(got))
	}
	if st := got[0].Export().Status; st != 503 {
		t.Fatalf("captured status = %d, want 503", st)
	}
}

func TestUnretainedTracesArePooled(t *testing.T) {
	tr := newTestTracer(Config{SampleEvery: 0, SlowThreshold: -1})
	tc := tr.Start("root")
	tc.Finish(200)
	again := tr.Start("root")
	defer again.Finish(200)
	if tc != again {
		t.Skip("pool did not return the same trace (GC ran); nothing to assert")
	}
	tj := again.Export()
	if len(tj.Spans) != 1 || tj.Spans[0].Name != "root" {
		t.Fatalf("pooled trace not reset: %+v", tj.Spans)
	}
}

func TestRetainBlocksPooling(t *testing.T) {
	tr := newTestTracer(Config{SampleEvery: 0, SlowThreshold: -1})
	tc := tr.Start("root")
	tc.Retain()
	tc.Finish(200)
	// Still referenced: a follow-up span must land on this trace, and a
	// fresh Start must mint a different one.
	sp := tc.StartSpan("late")
	sp.End()
	other := tr.Start("root")
	if other == tc {
		t.Fatalf("retained trace was pooled while referenced")
	}
	other.Finish(200)
	tc.Release()
}

func TestHeaderRoundTrip(t *testing.T) {
	tr := newTestTracer(Config{Fragment: "edge", SampleEvery: 1})
	tc := tr.Start("serve.verify")
	sp := tc.StartSpan("cluster.forward")
	h := sp.Header()
	id, frag, idx, ok := ParseHeader(h)
	if !ok {
		t.Fatalf("ParseHeader(%q) not ok", h)
	}
	if id != tc.ID() || frag != "edge" || idx != 1 {
		t.Fatalf("ParseHeader(%q) = (%q, %q, %d), want (%q, edge, 1)", h, id, frag, idx, tc.ID())
	}
	sp.End()
	tc.Finish(200)

	for _, good := range headerAccepts {
		if _, _, _, ok := ParseHeader(good); !ok {
			t.Errorf("ParseHeader(%q) rejected, want accept", good)
		}
	}
	for _, bad := range headerRejects {
		if _, _, _, ok := ParseHeader(bad); ok {
			t.Errorf("ParseHeader(%q) accepted, want reject", bad)
		}
	}
}

// headerAccepts and headerRejects are the X-Ebda-Trace accept and reject
// tables; they also seed FuzzParseHeader.
var (
	headerAccepts = []string{"4f2a/edge/1", "t/owner/0", "id/frag/2147483647"}
	headerRejects = []string{
		"", "noslash", "a/b", "/b/1", "a//1", "a/b/", "a/b/c/1x", "a/b/-1", "a/b/x",
	}
)

// FuzzParseHeader drives the untrusted X-Ebda-Trace parser. Properties:
// it never panics; an accepted value has a non-empty id and fragment
// without '/' and a non-negative span index; and re-rendering the
// accepted triple as id/fragment/spanIdx parses back to the same triple.
func FuzzParseHeader(f *testing.F) {
	for _, v := range headerAccepts {
		f.Add(v)
	}
	for _, v := range headerRejects {
		f.Add(v)
	}
	f.Fuzz(func(t *testing.T, v string) {
		id, fragment, spanIdx, ok := ParseHeader(v)
		if !ok {
			return
		}
		if id == "" || fragment == "" || strings.Contains(id, "/") || strings.Contains(fragment, "/") || spanIdx < 0 {
			t.Fatalf("ParseHeader(%q) accepted (%q, %q, %d)", v, id, fragment, spanIdx)
		}
		again := id + "/" + fragment + "/" + strconv.FormatInt(int64(spanIdx), 10)
		id2, fragment2, spanIdx2, ok := ParseHeader(again)
		if !ok || id2 != id || fragment2 != fragment || spanIdx2 != spanIdx {
			t.Fatalf("ParseHeader(%q) = (%q, %q, %d); re-rendered %q parses to (%q, %q, %d, %v)",
				v, id, fragment, spanIdx, again, id2, fragment2, spanIdx2, ok)
		}
	})
}

func TestRemoteJoinMergesIntoOneTrace(t *testing.T) {
	rec := NewRecorder(8, 4)
	edge := newTestTracer(Config{Fragment: "edge", SampleEvery: 1, Recorder: rec})
	owner := newTestTracer(Config{Fragment: "owner", SampleEvery: 0, SlowThreshold: -1, Recorder: rec})

	et := edge.Start("serve.verify")
	hop := et.StartSpan("cluster.forward")
	header := hop.Header()

	// Owner side: remote fragments are always retained even unsampled.
	ot := owner.StartRemote(header, "serve.verify")
	peel := ot.StartSpan("cdg.verify")
	peel.End()
	ot.Finish(200)

	hop.End()
	et.SetProvenance("forwarded")
	et.Finish(200)

	merged := Collect(rec.Snapshot())
	if len(merged) != 1 {
		t.Fatalf("Collect produced %d traces, want 1 merged: %+v", len(merged), merged)
	}
	tj := merged[0]
	if tj.ID != et.ID() {
		t.Fatalf("merged ID = %q, want the edge ID %q", tj.ID, et.ID())
	}
	if len(tj.Fragments) != 2 || tj.Fragments[0] != "edge" || tj.Fragments[1] != "owner" {
		t.Fatalf("fragments = %v, want [edge owner]", tj.Fragments)
	}
	if tj.Provenance != "forwarded" {
		t.Fatalf("provenance = %q taken from the wrong fragment", tj.Provenance)
	}
	// The owner's root span must link back to the edge's forward span.
	var ownerRoot *SpanJSON
	for i := range tj.Spans {
		if tj.Spans[i].ID == "owner:0" {
			ownerRoot = &tj.Spans[i]
		}
	}
	if ownerRoot == nil {
		t.Fatalf("owner root span missing from merge: %+v", tj.Spans)
	}
	if ownerRoot.Parent != "edge:1" {
		t.Fatalf("owner root parent = %q, want edge:1", ownerRoot.Parent)
	}

	var text strings.Builder
	if err := tj.WriteText(&text); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	for _, want := range []string{"cluster.forward", "cdg.verify"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("text render missing %q:\n%s", want, text.String())
		}
	}
}

func TestRingOverwriteConcurrent(t *testing.T) {
	rec := NewRecorder(4, 2)
	tr := newTestTracer(Config{SampleEvery: 1, SlowThreshold: -1, Recorder: rec})
	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Concurrent readers while writers wrap the tiny ring many times.
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, tj := range Collect(rec.Snapshot()) {
					if len(tj.Spans) == 0 {
						t.Error("snapshot exposed a trace with no spans")
						return
					}
				}
			}
		}()
	}
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				tc := tr.Start("root")
				sp := tc.StartSpan("work")
				sp.SetInt("i", int64(i))
				sp.End()
				tc.Finish(200)
			}
		}()
	}
	done := make(chan struct{})
	go func() { defer close(done); wg.Wait() }()
	go func() {
		// Give readers a moment of overlap with the writers, then stop them.
		time.Sleep(10 * time.Millisecond) //ebda:allow detlint test-only pacing
		close(stop)
	}()
	<-done
	got := rec.Snapshot()
	if len(got) > 4+2 {
		t.Fatalf("snapshot holds %d traces, ring bounds are 4+2", len(got))
	}
	if len(got) == 0 {
		t.Fatalf("snapshot empty after 800 retained finishes")
	}
	for i := 1; i < len(got); i++ {
		if got[i-1].retainedSeq.Load() < got[i].retainedSeq.Load() {
			t.Fatalf("snapshot not newest-first at %d", i)
		}
	}
}

func TestCanonicalRenderDeterministic(t *testing.T) {
	run := func() string {
		rec := NewRecorder(8, 4)
		tr := newTestTracer(Config{Fragment: "det", SampleEvery: 1, SlowThreshold: -1, Recorder: rec})
		for i := 0; i < 3; i++ {
			tc := tr.Start("serve.verify")
			look := tc.StartSpan("cache.lookup")
			look.SetInt("hit", int64(i%2))
			look.End()
			fl := tc.StartSpan("flight")
			fl.SetStr("role", "leader")
			fl.End()
			tc.SetProvenance("computed")
			tc.Finish(200)
		}
		var b strings.Builder
		for _, tj := range Collect(rec.Snapshot()) {
			if err := tj.WriteCanonicalText(&b); err != nil {
				t.Fatalf("WriteCanonicalText: %v", err)
			}
		}
		return b.String()
	}
	first, second := run(), run()
	if first != second {
		t.Fatalf("canonical renders differ:\n--- first\n%s--- second\n%s", first, second)
	}
	if strings.Contains(first, "ms") || strings.Contains(first, "det-") {
		t.Fatalf("canonical render leaks timings or IDs:\n%s", first)
	}
}

func TestNilTraceSafe(t *testing.T) {
	var tc *Trace
	ctx := NewContext(context.Background(), tc)
	if got := FromContext(ctx); got != nil {
		t.Fatalf("nil trace round-tripped as %v", got)
	}
	sp := tc.StartSpan("x")
	sp.SetInt("k", 1)
	sp.SetStr("k", "v")
	sp.End()
	if sp.Header() != "" {
		t.Fatalf("zero SpanRef rendered a header")
	}
	tc.SetProvenance("cache")
	tc.SetCoalescedWith("other")
	tc.Retain()
	tc.Release()
	tc.Finish(200)
	if tc.ID() != "" || tc.Fragment() != "" {
		t.Fatalf("nil trace has identity")
	}
}
