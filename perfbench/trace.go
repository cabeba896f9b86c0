package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer, as the benchmark saw it from
// outside. Spans of one operation share Op; Parent is the index of the
// enclosing span in the same recorder, or -1.
type span struct {
	Name   string `json:"name"`
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// recorder keeps the spans of one goroutine in memory. A nil recorder
// records nothing, so untraced rounds pay one nil check per call.
type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder(epoch time.Time) *recorder { return &recorder{epoch: epoch} }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, op int64, parent int) int {
	if r == nil {
		return -1
	}
	r.spans = append(r.spans, span{Name: name, Op: op, ID: len(r.spans), Parent: parent, Start: int64(time.Since(r.epoch))})
	return len(r.spans) - 1
}

// end closes span id and returns its duration.
func (r *recorder) end(id int) time.Duration {
	if r == nil {
		return 0
	}
	s := &r.spans[id]
	s.End = int64(time.Since(r.epoch))
	return time.Duration(s.End - s.Start)
}

// selfTimes sums, per span name, each span's duration minus the part of
// it that its children cover.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]int64)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += s.End - s.Start - covered
	}
	return out
}

// writeSpans writes every recorder's spans as JSON lines, one recorder
// after another, renumbering ids so they stay unique in the file.
func writeSpans(path string, recs []*recorder) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	base := 0
	for _, r := range recs {
		for _, s := range r.spans {
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			if err := enc.Encode(s); err != nil {
				f.Close()
				return err
			}
		}
		base += len(r.spans)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
