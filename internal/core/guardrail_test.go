package core

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runSequenceCall matches a hand-rolled piece of the run sequence:
// attaching a System from a Config, or starting and binding jobs one by
// one. The last three names are unexported today; they stay in the
// pattern so that re-exporting one does not quietly reopen the door.
var runSequenceCall = regexp.MustCompile(`core\.(Must)?Attach\(|\.(StartAllJobs|StartTraining|BindWorkload)\(`)

// runSequenceCalls lists the lines of one non-test Go file outside this
// package that match runSequenceCall.
func runSequenceCalls(rel, src string) []string {
	if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") || strings.HasPrefix(rel, "internal/core/") {
		return nil
	}
	var offenders []string
	for i, line := range strings.Split(src, "\n") {
		if runSequenceCall.MatchString(line) {
			offenders = append(offenders, fmt.Sprintf("%s:%d: %s", rel, i+1, strings.TrimSpace(line)))
		}
	}
	return offenders
}

// TestRunSequenceLivesInCore keeps "a monitored run" one thing, at the
// source level: outside this package no non-test Go file — bench/
// included — may attach a System from a hand-assembled Config or start
// and bind jobs itself. Every rig calls Runtime.Attach and Runtime.Train,
// so the multi-job guard, the reference run, the workload binding, the
// final flush, the trace writer's error and the release of the workers
// cannot be forgotten by the next copy. Give AttachOptions or Train's
// hook what a new rig needs instead of adding a call site.
func TestRunSequenceLivesInCore(t *testing.T) {
	root := filepath.Join("..", "..")
	var offenders []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		offenders = append(offenders, runSequenceCalls(filepath.ToSlash(rel), string(src))...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(offenders) > 0 {
		t.Errorf("run sequence assembled outside internal/core — call Runtime.Attach and Runtime.Train instead:\n  %s",
			strings.Join(offenders, "\n  "))
	}
}

// TestRunSequenceScanCatchesACopy plants the bug the scan exists for.
func TestRunSequenceScanCatchesACopy(t *testing.T) {
	const copyOfTheSequence = `package rig

func run(rt *core.Runtime) {
	sys, _ := core.Attach(cfg)
	for i, j := range rt.StartAllJobs(nil, nil) {
		sys.BindWorkload(rt.Jobs[i].Spec.Job, j)
	}
}
`
	if got := runSequenceCalls("internal/rig/run.go", copyOfTheSequence); len(got) != 3 {
		t.Errorf("scan flagged %d lines of a hand-rolled run sequence, want 3: %q", len(got), got)
	}
	for _, exempt := range []string{"internal/rig/run_test.go", "internal/core/run.go", "README.md"} {
		if got := runSequenceCalls(exempt, copyOfTheSequence); got != nil {
			t.Errorf("%s is exempt, scan flagged %q", exempt, got)
		}
	}
	if got := runSequenceCalls("internal/rig/run.go", "sys, err := rt.Attach(core.AttachOptions{})\nerr = rt.Train(nil)\n"); got != nil {
		t.Errorf("scan flagged the two steps themselves: %q", got)
	}
}
