package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer. Spans of one session share its
// id; parent is the index+1 of the enclosing span (0: a root).
type span struct {
	Name    string `json:"name"`
	Session uint64 `json:"session"`
	Parent  int    `json:"parent"`
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write dumps them at exit. A nil tracer
// records nothing, which is how the untraced runs call the same code.
type tracer struct {
	base time.Time
	ids  atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin allocates a session id.
func (t *tracer) begin() uint64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// start opens a span and returns its handle (index+1; 0 when untraced).
func (t *tracer) start(session uint64, name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Session: session, Parent: parent, Start: now})
	h := len(t.spans)
	t.mu.Unlock()
	return h
}

func (t *tracer) end(h int) {
	if t == nil || h == 0 {
		return
	}
	now := time.Since(t.base).Nanoseconds()
	t.mu.Lock()
	t.spans[h-1].End = now
	t.mu.Unlock()
}

// add records an already-measured span (a phase the verifier timed
// itself) under parent.
func (t *tracer) add(session uint64, name string, parent int, start time.Time, d time.Duration) {
	if t == nil || d <= 0 {
		return
	}
	s := start.Sub(t.base).Nanoseconds()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Session: session, Parent: parent, Start: s, End: s + d.Nanoseconds()})
	t.mu.Unlock()
}

// write dumps every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- sample statistics ---------------------------------------------------

// quantile returns the q-quantile of xs by nearest rank (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the highest of p99 and p90 with at least ten samples
// beyond it, and its label.
func tailQuantile(xs []float64) (float64, string) {
	if len(xs) >= 1000 {
		return quantile(xs, 0.99), "p99"
	}
	return quantile(xs, 0.90), "p90"
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
