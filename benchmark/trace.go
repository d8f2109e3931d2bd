package main

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one pass, request or probe
// share an id; lane is the client or goroutine that made the call (the
// Chrome trace's tid), and parent indexes the enclosing span (-1 = root).
type span struct {
	name   string // "<layer>.<call>", e.g. "mpisim.run"
	label  string // what the call worked on, e.g. "table5c/2/-"
	id     int
	lane   int
	parent int
	start  time.Duration
	end    time.Duration
}

// layer is the span's layer: its name up to the first dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.name, ".")
	return l
}

// tracer keeps spans in memory until the run writes them out. A nil
// *tracer records nothing and reads no clock, so untraced runs pay only a
// nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: now()} }

// begin opens a span and returns its handle (-1 on a nil tracer).
func (t *tracer) begin(name, label string, id, lane, parent int) int {
	if t == nil {
		return -1
	}
	start := now().Sub(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, label: label, id: id, lane: lane, parent: parent, start: start, end: -1})
	return len(t.spans) - 1
}

// end closes span i.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	end := now().Sub(t.epoch)
	t.mu.Lock()
	t.spans[i].end = end
	t.mu.Unlock()
}

// add records a span whose interval was measured by the caller.
func (t *tracer) add(name, label string, id, lane, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, label: label, id: id, lane: lane, parent: parent,
		start: start.Sub(t.epoch), end: end.Sub(t.epoch)})
	t.mu.Unlock()
}

// selfTimes returns each span's duration minus the part of it that its
// children cover.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		ivs := make([][2]time.Duration, 0, len(kids[i]))
		for _, k := range kids[i] {
			ivs = append(ivs, [2]time.Duration{max(spans[k].start, s.start), min(spans[k].end, s.end)})
		}
		slices.SortFunc(ivs, func(a, b [2]time.Duration) int { return cmp.Compare(a[0], b[0]) })
		covered, reach := time.Duration(0), s.start
		for _, iv := range ivs {
			lo := max(iv[0], reach)
			if iv[1] > lo {
				covered += iv[1] - lo
				reach = iv[1]
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// sums accumulates durations by name in first-seen order.
type sums struct {
	names []string
	vals  []time.Duration
}

func (s *sums) add(name string, d time.Duration) {
	if i := slices.Index(s.names, name); i >= 0 {
		s.vals[i] += d
		return
	}
	s.names = append(s.names, name)
	s.vals = append(s.vals, d)
}

func (s *sums) get(name string) time.Duration {
	if i := slices.Index(s.names, name); i >= 0 {
		return s.vals[i]
	}
	return 0
}

// selfByName sums the self time of the spans whose id is in ids, by span
// name and by layer.
func (t *tracer) selfByName(ids ...int) (byName, byLayer sums) {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	for i, s := range t.spans {
		if slices.Contains(ids, s.id) {
			byName.add(s.name, self[i])
			byLayer.add(s.layer(), self[i])
		}
	}
	return byName, byLayer
}

// timeByExperiment sums the duration of the bench.exp spans whose id is in
// ids, by experiment id (the label up to its first slash).
func (t *tracer) timeByExperiment(ids []int) sums {
	t.mu.Lock()
	defer t.mu.Unlock()
	var s sums
	for _, sp := range t.spans {
		if sp.name == "bench.exp" && slices.Contains(ids, sp.id) {
			exp, _, _ := strings.Cut(sp.label, "/")
			s.add(exp, sp.end-sp.start)
		}
	}
	return s
}

// checkPasses verifies, for each root span, that the self times of the
// spans sharing its id sum, lane by lane, to no more than the root's wall
// time — which holds when spans nest inside their parents and do not
// overlap within a lane. It returns one error per violation.
func (t *tracer) checkPasses(roots []int) []error {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	type laneSum struct {
		id, lane int
		total    time.Duration
	}
	var sums []laneSum
	var errs []error
	for i, s := range t.spans {
		if s.end < s.start {
			errs = append(errs, fmt.Errorf("span %s %s never ended", s.name, s.label))
			continue
		}
		j := slices.IndexFunc(sums, func(x laneSum) bool { return x.id == s.id && x.lane == s.lane })
		if j < 0 {
			sums = append(sums, laneSum{id: s.id, lane: s.lane})
			j = len(sums) - 1
		}
		sums[j].total += self[i]
	}
	for _, root := range roots {
		r := t.spans[root]
		wall := r.end - r.start
		for _, x := range sums {
			if x.id == r.id && x.total > wall+time.Microsecond {
				errs = append(errs, fmt.Errorf("%s %s lane %d: span self times sum to %v, more than its %v wall time", r.name, r.label, x.lane, x.total, wall))
			}
		}
	}
	return errs
}

// chromeEvent is one complete ("X") event of the Chrome Trace Event Format,
// which chrome://tracing and Perfetto load.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeChrome writes every span to path as a Chrome trace.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	self := selfTimes(t.spans)
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		name := s.name
		if s.label != "" {
			name += " " + s.label
		}
		events[i] = chromeEvent{
			Name: name, Cat: s.layer(), Ph: "X",
			Ts: us(s.start), Dur: us(s.end - s.start), Pid: 1, Tid: s.lane,
			Args: map[string]any{"id": s.id, "parent": s.parent, "self_us": us(self[i])},
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
