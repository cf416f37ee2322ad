package trace

import (
	"fmt"
	"io"
	"strconv"
)

// AttrJSON is one rendered span attribute (integer values are rendered
// decimal, so the JSON shape is uniform).
type AttrJSON struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanJSON is one span in the exported model. IDs are "fragment:index",
// stable across runs of a deterministic workload; Parent is empty only
// on the origin fragment's root span.
type SpanJSON struct {
	ID          string     `json:"id"`
	Parent      string     `json:"parent,omitempty"`
	Name        string     `json:"name"`
	StartMicros int64      `json:"start_us"`
	DurMicros   int64      `json:"dur_us"`
	Attrs       []AttrJSON `json:"attrs,omitempty"`
}

// TraceJSON is one distributed trace as served by /debug/traces: every
// recorded fragment sharing the trace ID merged into a single span
// list. Verdict metadata (status, provenance, duration) comes from the
// origin fragment — the one not joined from a propagated header.
type TraceJSON struct {
	ID            string     `json:"id"`
	Status        int        `json:"status"`
	Provenance    string     `json:"provenance,omitempty"`
	CoalescedWith string     `json:"coalesced_with,omitempty"`
	DurationMs    float64    `json:"duration_ms"`
	Slow          bool       `json:"slow,omitempty"`
	Fragments     []string   `json:"fragments"`
	DroppedSpans  int        `json:"dropped_spans,omitempty"`
	Spans         []SpanJSON `json:"spans"`
}

// export renders one fragment's spans into the JSON model, prefixing
// span IDs with the fragment name and linking the root span to the
// remote parent when the fragment was joined from a header.
func (t *Trace) export(into *TraceJSON) {
	t.mu.Lock()
	defer t.mu.Unlock()
	frag := t.fragment
	into.Fragments = append(into.Fragments, frag)
	into.DroppedSpans += t.dropped
	if t.remoteParent == "" {
		into.ID = t.idLocked()
		into.Status = t.status
		into.Provenance = t.provenance
		into.CoalescedWith = t.coalesced
		into.DurationMs = float64(t.durationNanos) / 1e6
		into.Slow = t.slow
	}
	for i := range t.spans {
		sp := &t.spans[i]
		sj := SpanJSON{
			ID:          frag + ":" + strconv.Itoa(i),
			Name:        sp.name,
			StartMicros: sp.start / 1e3,
		}
		if sp.end > sp.start {
			sj.DurMicros = (sp.end - sp.start) / 1e3
		}
		if sp.parent >= 0 {
			sj.Parent = frag + ":" + strconv.Itoa(int(sp.parent))
		} else if t.remoteParent != "" {
			sj.Parent = t.remoteParent
		}
		for a := 0; a < int(sp.nattrs); a++ {
			at := sp.attrs[a]
			v := at.Str
			if !at.IsStr {
				v = strconv.FormatInt(at.Int, 10)
			}
			sj.Attrs = append(sj.Attrs, AttrJSON{Key: at.Key, Value: v})
		}
		into.Spans = append(into.Spans, sj)
	}
}

// Export renders a single fragment as a TraceJSON (tests and the text
// renderer use it; /debug/traces merges fragments through Collect).
func (t *Trace) Export() TraceJSON {
	var tj TraceJSON
	t.export(&tj)
	if tj.ID == "" {
		tj.ID = t.ID()
	}
	return tj
}

// Collect merges a recorder snapshot (newest first) into distributed
// traces: fragments sharing a trace ID fold into one TraceJSON, origin
// fragment first, joined fragments following in snapshot order. A
// joined fragment whose origin was never recorded (or already
// overwritten) still renders, keeping the propagated ID.
func Collect(traces []*Trace) []TraceJSON {
	byID := make(map[string]int, len(traces))
	var order []*TraceJSON
	for _, t := range traces {
		id := t.ID()
		if i, ok := byID[id]; ok {
			t.export(order[i])
			continue
		}
		tj := &TraceJSON{}
		t.export(tj)
		if tj.ID == "" {
			tj.ID = id
		}
		byID[id] = len(order)
		order = append(order, tj)
	}
	out := make([]TraceJSON, len(order))
	for i, tj := range order {
		out[i] = *tj
	}
	return out
}

// WriteText renders the trace as an indented span tree:
//
//	trace local-0 status=200 provenance=computed 12.41ms [local]
//	  serve.verify 12.38ms
//	    cache.lookup 0.01ms hit=0
//	    flight 12.30ms role=leader
//	      queue.wait 0.12ms
//	      cdg.verify 11.90ms channels=224 edges=1210 acyclic=1
//
// Spans whose parent lives on an unrecorded fragment render at the top
// level under their trace.
func (tj TraceJSON) WriteText(w io.Writer) error {
	return tj.writeText(w, false)
}

// WriteCanonicalText is WriteText with every nondeterministic field
// omitted — trace IDs, span IDs and all timings — keeping names,
// nesting, attributes, status and provenance. Two runs of an identical
// sequential workload produce byte-identical canonical renderings;
// internal/serve's TestTraceDeterministic pins that.
func (tj TraceJSON) WriteCanonicalText(w io.Writer) error {
	return tj.writeText(w, true)
}

func (tj TraceJSON) writeText(w io.Writer, canonical bool) error {
	if canonical {
		if _, err := fmt.Fprintf(w, "trace status=%d provenance=%s spans=%d\n",
			tj.Status, tj.Provenance, len(tj.Spans)); err != nil {
			return err
		}
	} else {
		if _, err := fmt.Fprintf(w, "trace %s status=%d provenance=%s %.2fms %v\n",
			tj.ID, tj.Status, tj.Provenance, tj.DurationMs, tj.Fragments); err != nil {
			return err
		}
	}
	// children[i] lists span indices whose Parent is span i; roots are
	// spans whose parent is absent from the merged list.
	index := make(map[string]int, len(tj.Spans))
	for i, sp := range tj.Spans {
		index[sp.ID] = i
	}
	children := make([][]int, len(tj.Spans))
	var roots []int
	for i, sp := range tj.Spans {
		if p, ok := index[sp.Parent]; ok && sp.Parent != "" {
			children[p] = append(children[p], i)
		} else {
			roots = append(roots, i)
		}
	}
	var walk func(i, depth int) error
	walk = func(i, depth int) error {
		sp := tj.Spans[i]
		for d := 0; d < depth+1; d++ {
			if _, err := io.WriteString(w, "  "); err != nil {
				return err
			}
		}
		if canonical {
			if _, err := io.WriteString(w, sp.Name); err != nil {
				return err
			}
		} else {
			if _, err := fmt.Fprintf(w, "%s %.2fms", sp.Name, float64(sp.DurMicros)/1e3); err != nil {
				return err
			}
		}
		for _, a := range sp.Attrs {
			if _, err := fmt.Fprintf(w, " %s=%s", a.Key, a.Value); err != nil {
				return err
			}
		}
		if _, err := io.WriteString(w, "\n"); err != nil {
			return err
		}
		for _, c := range children[i] {
			if err := walk(c, depth+1); err != nil {
				return err
			}
		}
		return nil
	}
	for _, r := range roots {
		if err := walk(r, 0); err != nil {
			return err
		}
	}
	return nil
}
