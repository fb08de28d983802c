package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call the benchmark made into a layer. IDs start at 1;
// Parent 0 marks a root. Spans of one op share its Op id.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Op     int           `json:"op"`
	Pass   int           `json:"pass"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

// tracer holds the spans of a traced run in memory until write. A nil
// tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
	// psmpiTrace switches on the psmpi virtual-time trace of every op.
	psmpiTrace bool
}

func newTracer(psmpiTrace bool) *tracer { return &tracer{t0: time.Now(), psmpiTrace: psmpiTrace} }

// vtrace reports whether ops record the psmpi virtual-time trace.
func (t *tracer) vtrace() bool { return t != nil && t.psmpiTrace }

// start opens a span and returns its id (0 on a nil tracer).
func (t *tracer) start(name string, parent, op, pass int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Op: op, Pass: pass,
		Name: name, Start: time.Since(t.t0),
	})
	return len(t.spans)
}

// end closes the span start returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.t0)
}

// perPass sums the duration of the spans with the given name in each pass
// and returns the per-pass sums in seconds.
func (t *tracer) perPass(name string) []float64 {
	sums := map[int]float64{}
	passes := map[int]bool{}
	for _, s := range t.spans {
		passes[s.Pass] = true
		if s.Name == name {
			sums[s.Pass] += (s.End - s.Start).Seconds()
		}
	}
	out := make([]float64, 0, len(passes))
	for p := range passes {
		out = append(out, sums[p])
	}
	return out
}

// write stores the spans as JSON lines under dir and returns the path.
func (t *tracer) write(dir, workload string, seed int64) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.ndjson", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return "", fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return "", fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("write spans: %w", err)
	}
	return path, nil
}
