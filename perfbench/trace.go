package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// span is one timed call the benchmark made, or a step or operator
// duration the program reported for it.
type span struct {
	name       string
	op         int32 // operation index in the stream
	parent     int32 // index of the causing span; -1 for an operation's root
	start, end int64 // ns since the tracer's origin
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs share the traced runs' code. One tracer
// serves one goroutine.
type tracer struct {
	origin time.Time
	spans  []span
}

func newTracer(origin time.Time) *tracer {
	return &tracer{origin: origin, spans: make([]span, 0, 1<<16)}
}

func (t *tracer) open(name string, op, parent int32) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.origin))
	t.spans = append(t.spans, span{name: name, op: op, parent: parent, start: now, end: now})
	return int32(len(t.spans) - 1)
}

func (t *tracer) close(id int32) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].end = int64(time.Since(t.origin))
}

// durOf is a closed span's duration; 0 without a tracer.
func (t *tracer) durOf(id int32) time.Duration {
	if t == nil || id < 0 {
		return 0
	}
	return time.Duration(t.spans[id].end - t.spans[id].start)
}

// children lays reported durations end to end from the start of parent,
// clipped to it: the program reports how long each fetch step or
// operator ran, not when.
func (t *tracer) children(parent int32, names []string, durs []time.Duration) {
	if t == nil || parent < 0 {
		return
	}
	p := t.spans[parent]
	at := p.start
	for i, d := range durs {
		end := at + int64(d)
		if end > p.end {
			end = p.end
		}
		t.spans = append(t.spans, span{name: names[i], op: p.op, parent: parent, start: at, end: end})
		at = end
	}
}

// layerTime is one layer's share of a traced run.
type layerTime struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes sums, per span name, the spans' durations and their self
// time: the duration minus the part its child spans cover.
func selfTimes(spans []span) []layerTime {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	by := map[string]*layerTime{}
	for i, s := range spans {
		lt := by[s.name]
		if lt == nil {
			lt = &layerTime{name: s.name}
			by[s.name] = lt
		}
		d := s.end - s.start
		self := d - covered[i]
		if self < 0 {
			self = 0
		}
		lt.count++
		lt.total += time.Duration(d)
		lt.self += time.Duration(self)
	}
	out := make([]layerTime, 0, len(by))
	for _, lt := range by {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].self != out[j].self {
			return out[i].self > out[j].self
		}
		return out[i].name < out[j].name
	})
	return out
}

// writeSpans writes the spans as tab-separated lines (name, op, parent,
// start ns, end ns), then the per-layer self-time summary.
func writeSpans(path string, spans []span, layers []layerTime) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "# name\top\tparent\tstart_ns\tend_ns")
	for _, s := range spans {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\n", s.name, s.op, s.parent, s.start, s.end)
	}
	printLayers(w, layers)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func printLayers(w io.Writer, layers []layerTime) {
	var total time.Duration
	for _, lt := range layers {
		total += lt.self
	}
	fmt.Fprintf(w, "# %-22s %8s %12s %12s %7s\n", "layer", "spans", "total_ms", "self_ms", "self%")
	for _, lt := range layers {
		share := 0.0
		if total > 0 {
			share = 100 * float64(lt.self) / float64(total)
		}
		fmt.Fprintf(w, "# %-22s %8d %12.3f %12.3f %6.1f%%\n", lt.name, lt.count,
			float64(lt.total)/1e6, float64(lt.self)/1e6, share)
	}
}

// meanSpanUS is the mean duration, in µs, of the spans named name.
func meanSpanUS(spans []span, name string) float64 {
	var sum int64
	n := 0
	for _, s := range spans {
		if s.name == name {
			sum += s.end - s.start
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(sum) / float64(n) / 1e3
}
