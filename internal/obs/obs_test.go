package obs

import (
	"bytes"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
)

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("x_total", "a counter")
	b := r.Counter("x_total", "")
	if a != b {
		t.Fatal("same name returned distinct counters")
	}
	a.Add(3)
	if got := b.Value(); got != 3 {
		t.Fatalf("counter identity broken: %d", got)
	}
	if g1, g2 := r.Gauge("g", ""), r.Gauge("g", ""); g1 != g2 {
		t.Fatal("same name returned distinct gauges")
	}
	if h1, h2 := r.Histogram("h", "", DurationBuckets), r.Histogram("h", "", DurationBuckets); h1 != h2 {
		t.Fatal("same name returned distinct histograms")
	}
	if p1, p2 := r.Phase("p", ""), r.Phase("p", ""); p1 != p2 {
		t.Fatal("same name returned distinct phases")
	}
}

func TestLabel(t *testing.T) {
	got := Label("ebda_sim_diagnose_total", "outcome", "cycle")
	want := `ebda_sim_diagnose_total{outcome="cycle"}`
	if got != want {
		t.Fatalf("Label = %q, want %q", got, want)
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h", "", []float64{1, 10})
	for _, v := range []float64{0.5, 1, 5, 10, 11} {
		h.Observe(v)
	}
	s := r.Snapshot()
	hv, ok := s.Histogram("h")
	if !ok {
		t.Fatal("histogram missing from snapshot")
	}
	// 0.5 and 1 land in <=1; 5 and 10 in <=10; 11 in +Inf.
	want := []uint64{2, 2, 1}
	for i, w := range want {
		if hv.Counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d (all: %v)", i, hv.Counts[i], w, hv.Counts)
		}
	}
	if hv.Count != 5 || hv.Sum != 27.5 {
		t.Fatalf("count/sum = %d/%v, want 5/27.5", hv.Count, hv.Sum)
	}
}

func TestSnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz_total", "")
	r.Counter("aaa_total", "")
	r.Counter(Label("mmm_total", "k", "v"), "")
	s := r.Snapshot()
	var names []string
	for _, c := range s.Counters {
		names = append(names, c.Name)
	}
	for i := 1; i < len(names); i++ {
		if names[i-1] > names[i] {
			t.Fatalf("snapshot counters not sorted: %v", names)
		}
	}
}

func TestPhaseTableAndSpans(t *testing.T) {
	r := NewRegistry()
	p := r.Phase("child", "root")
	for w := 0; w < 3; w++ {
		sp := p.Start()
		sp.End()
	}
	s := r.Snapshot()
	pv, ok := s.Phase("child")
	if !ok {
		t.Fatal("phase missing from snapshot")
	}
	if pv.Parent != "root" || pv.Count != 3 {
		t.Fatalf("phase = %+v, want parent=root count=3", pv)
	}
	if pv.TotalSeconds < 0 || pv.MaxSeconds < 0 {
		t.Fatalf("negative durations: %+v", pv)
	}
	hv, ok := s.Histogram(Label(phaseHistName, "phase", "child"))
	if !ok {
		t.Fatal("phase duration histogram not registered")
	}
	if hv.Count != 3 {
		t.Fatalf("duration histogram count = %d, want 3", hv.Count)
	}
}

func TestZeroSpanEndIsNoop(t *testing.T) {
	var sp Span
	sp.End() // must not panic
}

func TestSubAndFilter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ebda_verify_cache_hits_total", "")
	other := r.Counter("ebda_cdg_verifies_total", "")
	p := r.Phase("cdg.verify", "")
	c.Add(2)
	other.Add(5)
	p.Start().End()
	before := r.Snapshot()
	c.Add(7)
	p.Start().End()
	delta := r.Snapshot().Sub(before)
	if got := delta.Counter("ebda_verify_cache_hits_total"); got != 7 {
		t.Fatalf("delta hits = %d, want 7", got)
	}
	if got := delta.Counter("ebda_cdg_verifies_total"); got != 0 {
		t.Fatalf("delta verifies = %d, want 0", got)
	}
	if pv, ok := delta.Phase("cdg.verify"); !ok || pv.Count != 1 {
		t.Fatalf("delta phase = %+v, want count 1", pv)
	}
	f := delta.Filter("ebda_verify_cache_")
	if len(f.Counters) != 1 || f.Counters[0].Name != "ebda_verify_cache_hits_total" {
		t.Fatalf("filter kept %+v", f.Counters)
	}
	if len(f.Phases) != 0 {
		t.Fatalf("filter kept phases %+v", f.Phases)
	}
}

func TestCanonicalDropsTimingKeepsStructure(t *testing.T) {
	run := func() Snapshot {
		r := NewRegistry()
		r.Counter("c_total", "").Add(4)
		p := r.Phase("ph", "")
		p.Start().End()
		p.Start().End()
		return r.Snapshot()
	}
	a, b := run().Canonical(), run().Canonical()
	var bufA, bufB bytes.Buffer
	if err := a.WriteJSON(&bufA); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteJSON(&bufB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bufA.Bytes(), bufB.Bytes()) {
		t.Fatalf("canonical snapshots differ:\n%s\n%s", bufA.String(), bufB.String())
	}
	if pv, ok := a.Phase("ph"); !ok || pv.Count != 2 || pv.TotalSeconds != 0 {
		t.Fatalf("canonical phase = %+v, want count 2, zero timings", pv)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Add(9)
	r.Gauge("g", "").Set(-3)
	r.Histogram("h", "", []float64{1}).Observe(0.5)
	r.Phase("p", "").Start().End()
	s := r.Snapshot()
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseSnapshot(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.Counter("c_total") != 9 || len(got.Gauges) != 1 || got.Gauges[0].Value != -3 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	if _, ok := got.Histogram("h"); !ok {
		t.Fatal("round trip lost histogram")
	}
	if pv, ok := got.Phase("p"); !ok || pv.Count != 1 {
		t.Fatalf("round trip lost phase: %+v", pv)
	}
}

func TestParseSnapshotRejectsGarbage(t *testing.T) {
	if _, err := ParseSnapshot([]byte("not json")); err == nil {
		t.Fatal("want error for malformed snapshot")
	}
}

func TestWriteTextRenders(t *testing.T) {
	r := NewRegistry()
	r.Counter("c_total", "").Add(2)
	r.Phase("p", "").Start().End()
	var buf bytes.Buffer
	if err := r.Snapshot().WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"counters:", "c_total", "phases:", "count 1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("text output missing %q:\n%s", want, out)
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("ebda_verify_cache_hits_total", "cache hits").Add(12)
	r.Counter(Label("ebda_sim_diagnose_total", "outcome", "cycle"), "diagnose outcomes").Add(1)
	r.Gauge("ebda_verify_cache_entries", "live entries").Set(4)
	p := r.Phase("cdg.verify", "")
	p.Start().End()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP ebda_verify_cache_hits_total cache hits",
		"# TYPE ebda_verify_cache_hits_total counter",
		"ebda_verify_cache_hits_total 12",
		`ebda_sim_diagnose_total{outcome="cycle"} 1`,
		"# TYPE ebda_verify_cache_entries gauge",
		"ebda_verify_cache_entries 4",
		"# TYPE ebda_phase_duration_seconds histogram",
		`ebda_phase_duration_seconds_bucket{phase="cdg.verify",le="1e-06"}`,
		`ebda_phase_duration_seconds_bucket{phase="cdg.verify",le="+Inf"} 1`,
		`ebda_phase_duration_seconds_count{phase="cdg.verify"} 1`,
		`ebda_phase_spans_total{phase="cdg.verify"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Every non-comment line is "name value" or "name{labels} value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	h := r.Histogram("h", "", []float64{1})
	p := r.Phase("p", "")
	var wg sync.WaitGroup
	const workers, each = 8, 1000
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				c.Inc()
				h.Observe(0.5)
				sp := p.Start()
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	if got := c.Value(); got != workers*each {
		t.Fatalf("counter = %d, want %d", got, workers*each)
	}
	if got := h.Count(); got != workers*each {
		t.Fatalf("histogram count = %d, want %d", got, workers*each)
	}
	if got := h.Sum(); got != workers*each*0.5 {
		t.Fatalf("histogram sum = %v, want %v", got, workers*each*0.5)
	}
	pv, _ := r.Snapshot().Phase("p")
	if pv.Count != workers*each {
		t.Fatalf("phase count = %d, want %d", pv.Count, workers*each)
	}
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

// TestRecordPathAllocFree pins the tentpole property: recording a metric
// from a hot path allocates nothing.
func TestRecordPathAllocFree(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", DurationBuckets)
	p := r.Phase("p", "")
	if n := mallocs(1000, func() { c.Add(1) }); n != 0 {
		t.Fatalf("1000 Counter.Add calls allocated %d times", n)
	}
	if n := mallocs(1000, func() { g.Set(7); g.Add(-1) }); n != 0 {
		t.Fatalf("1000 Gauge records allocated %d times", n)
	}
	if n := mallocs(1000, func() { h.Observe(1e-4) }); n != 0 {
		t.Fatalf("1000 Histogram.Observe calls allocated %d times", n)
	}
	if n := mallocs(1000, func() {
		sp := p.Start()
		sp.End()
	}); n != 0 {
		t.Fatalf("1000 Span start/end pairs allocated %d times", n)
	}
}

func BenchmarkCounterAdd(b *testing.B) {
	r := NewRegistry()
	c := r.Counter("c_total", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	r := NewRegistry()
	h := r.Histogram("h", "", DurationBuckets)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(1e-5)
	}
}

func BenchmarkSpan(b *testing.B) {
	r := NewRegistry()
	p := r.Phase("p", "")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sp := p.Start()
		sp.End()
	}
}
