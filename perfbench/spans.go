package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed region of the benchmark's own code around calls into a
// layer: pass, build, seq_baseline, sim_twin, run (one per cell) and
// micro.<layer>.
type span struct {
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"` // since the log began
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index into the log; -1 for a root
	Pass    int    `json:"pass"`   // pass id; -1 outside passes
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, which is how untraced runs stay uninstrumented.
type spanLog struct {
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// begin opens a span and returns its index (-1 on a nil log).
func (l *spanLog) begin(name string, parent, pass int) int {
	if l == nil {
		return -1
	}
	l.spans = append(l.spans, span{Name: name, StartNs: int64(time.Since(l.t0)), Parent: parent, Pass: pass})
	return len(l.spans) - 1
}

func (l *spanLog) end(i int) {
	if l == nil || i < 0 {
		return
	}
	l.spans[i].EndNs = int64(time.Since(l.t0))
}

// write stores the spans as JSON at path.
func (l *spanLog) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// summarize prints each span name's count, total time and self time: its
// duration less the part its children cover.
func (l *spanLog) summarize(w io.Writer) {
	type agg struct {
		count       int
		total, self int64
	}
	by := map[string]*agg{}
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.EndNs - s.StartNs
		}
	}
	for i, s := range l.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.count++
		a.total += s.EndNs - s.StartNs
		a.self += s.EndNs - s.StartNs - child[i]
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(w, "span %-16s count %4d total %9.3f ms self %9.3f ms\n", n, a.count, float64(a.total)/1e6, float64(a.self)/1e6)
	}
}
