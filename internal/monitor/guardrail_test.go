package monitor

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestBuildIsTheOnlyAssembly keeps the monitoring stack assembled in
// one place, at the source level: outside this package, no non-test Go
// file may call monitor.NewPipeline( or detect.New( — live system (at
// every monitored tier), offline replay and flowpulse-serve all go
// through Build and differ only in where their windows come from. A new
// call site is another copy of the detect → localize → remediate wiring
// that will drift from the users of Build; give Build's Spec what the
// new caller needs instead. bench/ is a separate module whose probes
// time the stages one by one; it is not scanned.
func TestBuildIsTheOnlyAssembly(t *testing.T) {
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate test file")
	}
	root := filepath.Dir(filepath.Dir(filepath.Dir(self))) // internal/monitor → repo root

	var offenders []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if d.IsDir() {
			if rel == ".git" || rel == "bench" || rel == "internal/monitor" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			if strings.Contains(line, "monitor.NewPipeline(") || strings.Contains(line, "detect.New(") {
				offenders = append(offenders, fmt.Sprintf("%s:%d: %s", rel, i+1, strings.TrimSpace(line)))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(offenders) > 0 {
		t.Errorf("pipeline assembled outside internal/monitor — call monitor.Build instead:\n  %s",
			strings.Join(offenders, "\n  "))
	}
}
