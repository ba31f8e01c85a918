package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call the benchmark made into a layer of the
// engine. Spans of one operation (one quote, one transaction, one
// query) share a trace id; Parent is 0 for the operation's root.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Trace  uint64 `json:"trace"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the recorder's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced runs pay one nil check per call site.
type recorder struct {
	epoch  time.Time
	nextID atomic.Uint64
	mu     sync.Mutex
	spans  []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// spanRef is an open span: its id (0 when not recording) and start.
type spanRef struct {
	id, parent, trace uint64
	name              string
	start             time.Time
}

// begin opens a span starting now.
func (r *recorder) begin(name string, trace, parent uint64) spanRef {
	return r.beginAt(name, trace, parent, time.Now())
}

// beginAt opens a span that started at t (an open-loop quote's root
// span starts at its due time, not when it was sent).
func (r *recorder) beginAt(name string, trace, parent uint64, t time.Time) spanRef {
	if r == nil {
		return spanRef{}
	}
	return spanRef{id: r.nextID.Add(1), parent: parent, trace: trace, name: name, start: t}
}

// end closes a span now.
func (r *recorder) end(s spanRef) { r.endAt(s, time.Now()) }

func (r *recorder) endAt(s spanRef, t time.Time) {
	if r == nil || s.id == 0 {
		return
	}
	sp := span{ID: s.id, Parent: s.parent, Trace: s.trace, Name: s.name,
		Start: int64(s.start.Sub(r.epoch)), End: int64(t.Sub(r.epoch))}
	r.mu.Lock()
	r.spans = append(r.spans, sp)
	r.mu.Unlock()
}

// snapshot returns a copy of the finished spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.snapshot() {
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

// selfTimes returns each span's self time: its duration minus the
// part of its interval covered by its children. Children may overlap
// one another (concurrent calls under one parent) or stick out of the
// parent's interval; only the union of their overlap with the parent
// is subtracted, so self time is never negative and never counts a
// covered instant twice.
func selfTimes(spans []span) map[uint64]int64 {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns the length of the union of kids' intervals clipped
// to parent's interval.
func covered(parent span, kids []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, parent.Start), min(k.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, curA, curB int64
	open := false
	for _, x := range ivs {
		switch {
		case !open:
			curA, curB, open = x.a, x.b, true
		case x.a <= curB:
			curB = max(curB, x.b)
		default:
			total += curB - curA
			curA, curB = x.a, x.b
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// spanStats summarises the spans of each name: count, mean duration
// and mean self time, in microseconds.
type spanStat struct {
	Count      int
	MeanUS     float64
	MeanSelfUS float64
}

func summarize(spans []span) map[string]spanStat {
	self := selfTimes(spans)
	sum := map[string][3]float64{}
	for _, s := range spans {
		v := sum[s.Name]
		v[0]++
		v[1] += float64(s.dur())
		v[2] += float64(self[s.ID])
		sum[s.Name] = v
	}
	out := make(map[string]spanStat, len(sum))
	for name, v := range sum {
		out[name] = spanStat{Count: int(v[0]), MeanUS: v[1] / v[0] / 1e3, MeanSelfUS: v[2] / v[0] / 1e3}
	}
	return out
}

func (s spanStat) String() string {
	return fmt.Sprintf("n=%d mean=%.1fus self=%.1fus", s.Count, s.MeanUS, s.MeanSelfUS)
}
