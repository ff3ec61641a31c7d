package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// spanRec is one traced call: a layer's public function, or a request.
// Times are nanoseconds since the tracer's epoch; Parent indexes the
// enclosing span (-1 for a request's root).
type spanRec struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Req    int32  `json:"req"`
}

// tracer records spans and counts in memory. It is single-goroutine:
// the traced run replays requests one at a time. While off (during
// warm-up) it records nothing.
type tracer struct {
	on     bool
	epoch  time.Time
	spans  []spanRec
	cur    int32 // innermost open span, -1 if none
	req    int32
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), cur: -1, counts: map[string]float64{}}
}

func (t *tracer) begin(name string) int32 {
	if !t.on {
		return -1
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, spanRec{Name: name, Start: int64(time.Since(t.epoch)), Parent: t.cur, Req: t.req})
	t.cur = i
	return i
}

func (t *tracer) end(i int32) {
	if i < 0 {
		return
	}
	t.spans[i].End = int64(time.Since(t.epoch))
	t.cur = t.spans[i].Parent
}

// do records f as one span.
func (t *tracer) do(name string, f func()) {
	i := t.begin(name)
	f()
	t.end(i)
}

// count adds v to a named counter, recorded at the same boundary as
// the span around the call that produced it.
func (t *tracer) count(name string, v float64) {
	if t.on {
		t.counts[name] += v
	}
}

// selfTimes sums each span name's self time: its duration minus the
// part its child spans cover.
func (t *tracer) selfTimes() map[string]time.Duration {
	children := make([][]interval, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		out[s.Name] += time.Duration(selfTime(interval{s.Start, s.End}, children[i]))
	}
	return out
}

// write saves every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
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
