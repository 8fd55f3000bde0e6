package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// Tracing. Spans are recorded only by the benchmark, around its own calls
// into each layer of the program; nothing inside the program is
// instrumented. Each goroutine records into its own spanBuf, so tracing
// adds no shared lock to the measured path. Spans stay in memory and are
// written out once, when the run ends.

// span is one timed call. Parent indexes the enclosing span in the same
// buffer (-1 for a root); all spans of one request share Req.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
	Req    int64  `json:"req"`
}

// maxSpansPerBuf caps one buffer's memory; spans beyond it are counted,
// not kept.
const maxSpansPerBuf = 1 << 18

type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	bufs    []*spanBuf
	nextReq int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// buf returns a new per-goroutine span buffer, or nil when t is nil
// (tracing off); every spanBuf method is a no-op on nil.
func (t *tracer) buf() *spanBuf {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	b := &spanBuf{t: t}
	t.bufs = append(t.bufs, b)
	return b
}

type spanBuf struct {
	t       *tracer
	spans   []span
	dropped int
}

// req returns a fresh request id.
func (b *spanBuf) req() int64 {
	if b == nil {
		return 0
	}
	b.t.mu.Lock()
	defer b.t.mu.Unlock()
	b.t.nextReq++
	return b.t.nextReq
}

// start opens a span and returns its handle for finish (and as the parent
// of nested spans); -1 when tracing is off or the buffer is full.
func (b *spanBuf) start(name string, parent int, req int64) int {
	if b == nil {
		return -1
	}
	if len(b.spans) >= maxSpansPerBuf {
		b.dropped++
		return -1
	}
	b.spans = append(b.spans, span{Name: name, Start: int64(time.Since(b.t.epoch)), Parent: parent, Req: req})
	return len(b.spans) - 1
}

func (b *spanBuf) finish(i int) {
	if b == nil || i < 0 {
		return
	}
	b.spans[i].End = int64(time.Since(b.t.epoch))
}

// spanDurations returns every recorded span's duration (ns), by span name.
// Call after all recording goroutines have finished.
func (t *tracer) spanDurations() map[string][]float64 {
	out := make(map[string][]float64)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, b := range t.bufs {
		for _, s := range b.spans {
			out[s.Name] = append(out[s.Name], float64(s.End-s.Start))
		}
	}
	return out
}

// write dumps every span as one JSON object per line, parents re-indexed
// to positions in the file.
func (t *tracer) write(path string) (err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	off, dropped := 0, 0
	for _, b := range t.bufs {
		for _, s := range b.spans {
			if s.Parent >= 0 {
				s.Parent += off
			}
			if err := enc.Encode(s); err != nil {
				return err
			}
		}
		off += len(b.spans)
		dropped += b.dropped
	}
	if dropped > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: %d spans dropped past the per-buffer cap\n", dropped)
	}
	return w.Flush()
}
