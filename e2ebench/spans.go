package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer. Spans live in memory until the
// run ends; parent indexes the recorder's slice (-1 for a pass root).
type span struct {
	name       string
	pass       int
	parent     int
	start, end time.Duration // offsets from the recorder's origin
}

// recorder collects the spans of a traced run. A nil *recorder records
// nothing, which is how the untraced passes share the traced code.
type recorder struct {
	origin time.Time
	pass   int
	spans  []span
}

func newRecorder() *recorder { return &recorder{origin: time.Now()} }

// begin opens a span under parent and returns its id.
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{name: name, pass: r.pass, parent: parent, start: time.Since(r.origin)})
	return len(r.spans) - 1
}

// finish closes the span begin returned.
func (r *recorder) finish(id int) {
	if r == nil {
		return
	}
	r.spans[id].end = time.Since(r.origin)
}

// layerTimes is one pass's total and self time per span name.
type layerTimes struct {
	total, self map[string]time.Duration
	calls       map[string]int
}

// perPass folds the spans into per-pass totals. A span's self time is
// its duration minus the durations of its children; spans are recorded
// from one goroutine, so children never overlap.
func (r *recorder) perPass() []layerTimes {
	children := make([]time.Duration, len(r.spans))
	for _, s := range r.spans {
		if s.parent >= 0 {
			children[s.parent] += s.end - s.start
		}
	}
	var out []layerTimes
	for i, s := range r.spans {
		for len(out) <= s.pass {
			out = append(out, layerTimes{
				total: map[string]time.Duration{},
				self:  map[string]time.Duration{},
				calls: map[string]int{},
			})
		}
		lt := out[s.pass]
		d := s.end - s.start
		lt.total[s.name] += d
		lt.self[s.name] += d - children[i]
		lt.calls[s.name]++
	}
	return out
}

// write stores the spans as JSON lines, one per span, after a header
// line naming the run.
func (r *recorder) write(path string, header map[string]any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return err
	}
	type line struct {
		ID      int    `json:"id"`
		Pass    int    `json:"pass"`
		Parent  int    `json:"parent"`
		Name    string `json:"name"`
		StartNs int64  `json:"start_ns"`
		EndNs   int64  `json:"end_ns"`
	}
	for i, s := range r.spans {
		if err := enc.Encode(line{i, s.pass, s.parent, s.name, int64(s.start), int64(s.end)}); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerOf maps a span name to the layer it times: the part before the
// first dot.
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// printSelfTimes prints the self time per span and, for the replay's
// layer spans, per layer with each layer's share of the replay.
func printSelfTimes(w io.Writer, passes []layerTimes) {
	total := map[string]time.Duration{}
	self := map[string]time.Duration{}
	calls := map[string]int{}
	for _, lt := range passes {
		for n, d := range lt.total {
			total[n] += d
			self[n] += lt.self[n]
			calls[n] += lt.calls[n]
		}
	}
	names := make([]string, 0, len(total))
	for n := range total {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "spans over %d traced passes\n", len(passes))
	fmt.Fprintf(w, "  %-20s %8s %12s %12s\n", "span", "calls", "total_ms", "self_ms")
	for _, n := range names {
		fmt.Fprintf(w, "  %-20s %8d %12.2f %12.2f\n", n, calls[n], ms(total[n]), ms(self[n]))
	}
	layers, sum := replayLayers(self)
	fmt.Fprintf(w, "layer self time in the replay\n")
	fmt.Fprintf(w, "  %-20s %12s %8s\n", "layer", "self_ms", "share")
	for _, l := range layers {
		fmt.Fprintf(w, "  %-20s %12.2f %8.3f\n", l.name, ms(l.self), float64(l.self)/float64(sum))
	}
}

type layerSelf struct {
	name string
	self time.Duration
}

// replayLayers sums the self time of the replay's spans by layer,
// largest first, and returns the replay's total.
func replayLayers(self map[string]time.Duration) ([]layerSelf, time.Duration) {
	by := map[string]time.Duration{}
	var sum time.Duration
	for n, d := range self {
		if !replaySpans[n] {
			continue
		}
		by[layerOf(n)] += d
		sum += d
	}
	out := make([]layerSelf, 0, len(by))
	for n, d := range by {
		out = append(out, layerSelf{n, d})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out, sum
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
