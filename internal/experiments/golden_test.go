package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata/ from the current output")

// TestEvalGolden pins the exact text flowpulse-eval prints for every
// experiment of a quick-scale run at seed 1 — the whole of EvalOrder,
// so a new experiment cannot be left out. The pipeline is
// deterministic, so any diff is a real behavior change: either a
// regression, or an intentional change to be blessed with
//
//	go test ./internal/experiments -run TestEvalGolden -update
func TestEvalGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-scale eval run is still a multi-second simulation")
	}
	runs := EvalExperiments(EvalOverrides{Quick: true, Seed: 1})
	// Experiments share nothing (one engine per run), so they run
	// concurrently; the output is assembled in EvalOrder.
	out := make([]string, len(EvalOrder))
	results := make([]fmt.Stringer, len(EvalOrder))
	errs := make([]error, len(EvalOrder))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				res, err := runs[EvalOrder[i]]()
				if errs[i] = err; err == nil {
					out[i], results[i] = res.String(), res
				}
			}
		}()
	}
	for i := range EvalOrder {
		next <- i
	}
	close(next)
	wg.Wait()
	var b strings.Builder
	for i, name := range EvalOrder {
		if errs[i] != nil {
			t.Fatalf("%s: %v", name, errs[i])
		}
		fmt.Fprintf(&b, "%s\n", strings.Repeat("=", 72))
		b.WriteString(out[i])
		// The configuration the run reports is the one the
		// simulation-free config golden pins for it.
		ran := reflect.ValueOf(results[i]).Elem().FieldByName("Config").Interface()
		if pinned := table[i].config(EvalOverrides{Quick: true, Seed: 1}); !reflect.DeepEqual(ran, pinned) {
			t.Errorf("%s ran with\n  %s\nbut TestEvalConfigGolden pins\n  %s", name, configLine(ran), configLine(pinned))
		}
	}
	checkGolden(t, "eval_quick.golden", b.String())
}

// checkGolden compares got with testdata/<name>, or rewrites the file
// under -update.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create it): %v", err)
	}
	if got != string(want) {
		t.Fatalf("output drifted from %s — diff:\n%s\n(bless intentional changes with -update)",
			path, diffLines(string(want), got))
	}
}

// diffLines renders a compact first-divergence diff so a golden
// failure points at the changed experiment, not a 200-line dump.
func diffLines(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n-%s\n+%s", i+1, wl, gl)
		}
	}
	return "(lengths differ only)"
}
