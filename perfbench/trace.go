package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's own
// files. Spans of one operation (a build, a solve, a request) share Op;
// Parent is the ID of the span that caused this one, -1 for a root.
type span struct {
	Op     uint64        `json:"op"`
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer is a
// valid, disabled tracer: every method is a no-op, so untraced runs pay
// one nil check per layer call.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	ops   uint64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newOp returns a fresh operation id (0 when disabled).
func (t *tracer) newOp() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// begin opens a span and returns its id (-1 when disabled).
func (t *tracer) begin(op uint64, parent int, name string) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: now, End: -1})
	return id
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.epoch)
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// record adds a span that has already completed.
func (t *tracer) record(op uint64, parent int, name string, start, end time.Time) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name,
		Start: start.Sub(t.epoch), End: end.Sub(t.epoch)})
	return id
}

// snapshot returns the closed spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// writeFile writes every span as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// childCover returns, for every span, how much of its interval the union
// of its children covers. Children may overlap (concurrent calls), so the
// union is taken, clipped to the parent's interval.
func childCover(spans []span) map[int]time.Duration {
	kids := map[int][]span{}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	cover := make(map[int]time.Duration, len(spans))
	for pid, cs := range kids {
		p, ok := byID[pid]
		if !ok {
			continue
		}
		sort.Slice(cs, func(i, j int) bool { return cs[i].Start < cs[j].Start })
		var covered time.Duration
		lo, hi := time.Duration(-1), time.Duration(-1)
		for _, c := range cs {
			s, e := max(c.Start, p.Start), min(c.End, p.End)
			if e <= s {
				continue
			}
			if s > hi {
				covered += hi - lo
				lo, hi = s, e
			} else if e > hi {
				hi = e
			}
		}
		covered += hi - lo
		cover[pid] = covered
	}
	return cover
}

// selfTimes returns each span's duration minus the part of its interval
// its children cover, keyed by span id.
func selfTimes(spans []span) map[int]time.Duration {
	cover := childCover(spans)
	out := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - cover[s.ID]
	}
	return out
}

// durationsByName groups span durations by span name.
func durationsByName(spans []span) map[string][]time.Duration {
	out := map[string][]time.Duration{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], s.dur())
	}
	return out
}

// coverageOf returns, for every span named root, the fraction of its
// duration its children account for.
func coverageOf(spans []span, root string) samples {
	cover := childCover(spans)
	var out samples
	for _, s := range spans {
		if s.Name == root && s.dur() > 0 {
			out = append(out, float64(cover[s.ID])/float64(s.dur()))
		}
	}
	return out
}
