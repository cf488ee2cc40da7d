package control

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// mutationCall matches a call through the raw fabric mutation surface.
// Method declarations don't match (no leading dot), so the fabric's own
// definition is naturally exempt.
var mutationCall = regexp.MustCompile(`\.SetLinkAdmin\(`)

// TestPlaneIsTheOnlyMutationPath enforces the belief/truth seam at the
// source level: no non-test Go file outside internal/fabric (the truth)
// and internal/control (the only sanctioned mutator) may call
// SetLinkAdmin. Everything else — remediator, resilience, scenarios,
// CLIs — must mutate the fabric through a ChangeSet on the control
// plane, where the write is verified, logged, and visible to
// reconciliation. A new call site is a new way for belief to silently
// diverge from truth; route it through Plane.Apply instead of extending
// the allowlist.
func TestPlaneIsTheOnlyMutationPath(t *testing.T) {
	_, self, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("cannot locate test file")
	}
	root := filepath.Dir(filepath.Dir(filepath.Dir(self))) // internal/control → repo root

	var offenders []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if strings.HasPrefix(rel, "internal/fabric/") || strings.HasPrefix(rel, "internal/control/") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			if mutationCall.MatchString(line) {
				offenders = append(offenders, fmt.Sprintf("%s:%d: %s", rel, i+1, strings.TrimSpace(line)))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(offenders) > 0 {
		t.Errorf("raw fabric mutations outside internal/fabric and internal/control — route these through control.Plane.Apply:\n  %s",
			strings.Join(offenders, "\n  "))
	}
}
