package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"
)

// span is one timed call from the harness into a layer. Spans are
// recorded around the harness's own calls — nothing inside the program
// under test is instrumented — kept in memory, and written out when
// the run ends.
type span struct {
	Name string `json:"name"`
	// Start and End are nanoseconds since the tracer was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Parent is the index of the span that caused this one, -1 at the
	// top. ID groups the spans of one iteration or session.
	Parent int `json:"parent"`
	ID     int `json:"id"`
}

// tracer collects spans. A nil *tracer is the untraced run: every
// method is a no-op, so workloads call it unconditionally.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// sampleEvery is the per-window sampling rate: one window in this many
// gets decode/onwindow spans, so tracing a 20k-window stream costs a
// few hundred clock reads, not forty thousand.
const sampleEvery = 64

// begin opens a span and returns its index (to parent children on) and
// the func that closes it.
func (t *tracer) begin(name string, parent, id int) (int, func()) {
	if t == nil {
		return -1, func() {}
	}
	t.mu.Lock()
	ix := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.t0)), Parent: parent, ID: id})
	t.mu.Unlock()
	return ix, func() {
		end := int64(time.Since(t.t0))
		t.mu.Lock()
		t.spans[ix].End = end
		t.mu.Unlock()
	}
}

// add records an already-timed span.
func (t *tracer) add(name string, start, end time.Time, parent, id int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent, ID: id})
	t.mu.Unlock()
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) (n int, d time.Duration) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.Name == name {
			n++
			d += time.Duration(s.End - s.Start)
		}
	}
	return n, d
}

// write dumps the spans as JSON under dir.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "spans-"+workload+".json")
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// acctRow is one line of the per-layer accounting: count units of work
// at unit cost each. Costs are inclusive of the layers below; child
// rows (indent > 0) break a parent's product down and are not added to
// the attributed total again. Every unit cost comes from a probe run
// under the probe's own conditions, so children need not sum to their
// parent.
type acctRow struct {
	layer  string
	count  float64
	unitNs float64
	indent int
}

// printAccounting prints layer · count · unit cost · product · share
// of the section's process CPU time (elapsed time would undercount a
// section that keeps both cores busy), then what the top-level rows
// leave unattributed — load generators, kernel socket work, GC,
// scheduling — and returns that remainder as a percentage.
func printAccounting(workload string, wall, cpu time.Duration, rows []acctRow) float64 {
	fmt.Printf("\naccounting for %s (measured section: %.1f ms elapsed, %.1f ms process CPU; costs inclusive, children indented)\n", workload, ms(wall), ms(cpu))
	fmt.Printf("  %-44s %14s %12s %12s %9s\n", "layer", "count", "unit ns", "product ms", "of CPU")
	var attributed float64
	for _, r := range rows {
		product := r.count * r.unitNs
		if r.indent == 0 {
			attributed += product
		}
		fmt.Printf("  %-44s %14.0f %12.1f %12.2f %8.1f%%\n", strings.Repeat("  ", r.indent)+r.layer, r.count, r.unitNs, product/1e6, 100*product/float64(cpu))
	}
	rest := float64(cpu) - attributed
	share := 100 * rest / float64(cpu)
	fmt.Printf("  %-44s %14s %12s %12.2f %8.1f%%\n", "unattributed", "", "", rest/1e6, share)
	return share
}
