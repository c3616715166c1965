package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// span is one timed interval of the benchmark's own calls into the program:
// a setup step, one core.Run / core.RunMulti call, or one replay batch.
// Spans of one call share a Group; Parent is 0 for a root span.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Group  int           `json:"group"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer keeps spans in memory; they are written once, when the run ends.
// A nil *tracer records nothing, so untraced code paths take the same calls.
type tracer struct {
	origin time.Time
	spans  []span
	groups int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span under parent (0 for a root) and returns its ID. A root
// span starts a new group; a child joins its parent's group.
func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	group := 0
	if parent == 0 {
		t.groups++
		group = t.groups
	} else {
		group = t.spans[parent-1].Group
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Group: group, Name: name,
		Start: time.Since(t.origin),
	})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.origin)
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover, indexed by span ID - 1.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi time.Duration }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.lo <= cur.hi:
			cur.hi = max(cur.hi, v.hi)
		default:
			total += cur.hi - cur.lo
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.hi - cur.lo
	}
	return total
}

// spanSummary is the per-name aggregate of the traced run's spans.
type spanSummary struct {
	Name  string
	Count int
	Total time.Duration
	Self  time.Duration
}

// summarize aggregates spans by name, ordered by self time, largest first.
func summarize(spans []span) []spanSummary {
	self := selfTimes(spans)
	idx := make(map[string]int)
	var out []spanSummary
	for i, s := range spans {
		j, ok := idx[s.Name]
		if !ok {
			j = len(out)
			idx[s.Name] = j
			out = append(out, spanSummary{Name: s.Name})
		}
		out[j].Count++
		out[j].Total += s.End - s.Start
		out[j].Self += self[i]
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Self > out[j].Self })
	return out
}

// writeSummary prints the self-time table of the traced run.
func writeSummary(w io.Writer, spans []span) {
	fmt.Fprintf(w, "  %-34s %7s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, s := range summarize(spans) {
		fmt.Fprintf(w, "  %-34s %7d %12.3f %12.3f\n", s.Name, s.Count,
			float64(s.Total)/1e6, float64(s.Self)/1e6)
	}
}

// writeSpans writes the raw spans as JSON.
func writeSpans(w io.Writer, spans []span) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(spans)
}
