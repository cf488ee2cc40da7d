package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// TestSmoke runs every workload at toy scale, untraced and traced, the
// way the driver does: all gates green, every declared metric present,
// every timed or counted end-to-end metric non-zero. It keeps the
// harness compiling and honest without running the full load.
func TestSmoke(t *testing.T) {
	saved := probeTime
	probeTime = 2 * time.Millisecond
	t.Cleanup(func() { probeTime = saved; os.RemoveAll("out") })

	cfg := smokeScale.cfg
	cfg.seed, cfg.seconds = 9, 0.3
	for i := range workloads {
		w := &workloads[i]
		for _, traced := range []bool{false, true} {
			res, err := execute(w, smokeScale, cfg, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if res.failed != 0 || res.attempted == 0 {
				t.Errorf("%s traced=%v: attempted %d, failed %d: %v", w.name, traced, res.attempted, res.failed, res.failures)
			}
			for _, d := range endToEnd {
				if d.name == "live_heap_mb" {
					continue // a toy session is over before the first heap reading
				}
				if v := res.e2e[d.name]; !(v > 0) {
					t.Errorf("%s traced=%v: %s = %v, want > 0", w.name, traced, d.name, v)
				}
			}
			line, err := json.Marshal(res.report(traced))
			if err != nil {
				t.Fatal(err)
			}
			var back struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value *float64
					Unit  string
				}
			}
			if err := json.Unmarshal(line, &back); err != nil {
				t.Fatal(err)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(back.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics in the report, %d declared", w.name, traced, len(back.Metrics), len(want))
			}
			for _, d := range want {
				if m, ok := back.Metrics[d.name]; !ok || m.Value == nil || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s missing or malformed in %s", w.name, traced, d.name, line)
				}
			}
			if traced {
				if _, err := os.Stat("out/spans-" + w.name + ".json"); err != nil {
					t.Errorf("%s: no spans file: %v", w.name, err)
				}
			}
		}
	}
}
