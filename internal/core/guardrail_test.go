package core

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// A sourceScan keeps one job in one place, at the source level: no
// non-test Go file outside the exempt directories — bench/ is scanned
// too — may contain a line matching call, beyond the number of lines
// allow grants the file.
type sourceScan struct {
	call   *regexp.Regexp
	exempt []string       // directory prefixes, slash-separated
	allow  map[string]int // file -> matching lines it may hold
}

var (
	// runSequence matches a hand-rolled piece of the run sequence: a
	// runtime attached or trained by hand instead of through Run, a
	// System attached other than through Runtime.Attach, or jobs started
	// and bound one by one. The last names exist nowhere outside a
	// Runtime method today; they stay in the pattern so that exporting
	// one does not quietly reopen the door.
	runSequence = sourceScan{
		regexp.MustCompile(`\brt\.(Attach|Train)\(|core\.(Must)?Attach\(|\.(StartAllJobs|StartTraining|BindWorkload)\(`),
		[]string{"internal/core/"},
		map[string]int{
			"flowpulse.go":                 3, // the facade: bench/ times Build, Attach and Train separately
			"internal/experiments/fig2.go": 1, // a tap-only run: the raw windows are the figure, no System to attach
		},
	}
	// faultInjection matches a silent fault armed or cleared on the fabric
	// directly, past Runtime.Inject and Runtime.Heal.
	faultInjection = sourceScan{
		regexp.MustCompile(`(InjectFault|ClearFault)\(`),
		[]string{"internal/core/", "internal/fabric/"}, nil,
	}
	// faultRecords matches a hand-written ground-truth record.
	faultRecords = sourceScan{
		regexp.MustCompile(`trace\.FaultRecord\{`),
		[]string{"internal/core/", "internal/trace/"}, nil,
	}
	// engineMode matches code asking which engine it runs on: whether
	// there is a group, a field caching the answer, or a test of how many
	// domains there are. Scenario.Shards picks a partition, not an engine;
	// what differs between partitions is the sites listed here and nothing
	// else (DESIGN.md decision 12).
	engineMode = sourceScan{
		regexp.MustCompile(`(\.Group(\(\))?|EngineGroup|\bgrp)(; *\w+)? *[!=]= *nil|\bpar +bool\b|\.par\b|Domains\(\) *[!=<>]=? *\d`),
		[]string{"internal/sim/"},
		map[string]int{
			"internal/fabric/network.go":      1, // New normalizes the bare Config{Engine: e} form
			"internal/transport/transport.go": 3, // contract decisions 1 (message ids) and 2 (reap: lookup, delete)
			"internal/core/fault.go":          1, // contract decision 3 (flap streams)
			"bench/sim.go":                    1, // counts executed events; bench/ is frozen by BENCHMARK.json
		},
	}
)

// in lists the lines of one file that the scan forbids.
func (sc sourceScan) in(rel, src string) []string {
	if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
		return nil
	}
	for _, dir := range sc.exempt {
		if strings.HasPrefix(rel, dir) {
			return nil
		}
	}
	var offenders []string
	for i, line := range strings.Split(src, "\n") {
		if sc.call.MatchString(line) {
			offenders = append(offenders, fmt.Sprintf("%s:%d: %s", rel, i+1, strings.TrimSpace(line)))
		}
	}
	if len(offenders) <= sc.allow[rel] {
		return nil
	}
	return offenders
}

// repo runs the scan over every file of the repository.
func (sc sourceScan) repo(t *testing.T) []string {
	t.Helper()
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
		offenders = append(offenders, sc.in(filepath.ToSlash(rel), string(src))...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return offenders
}

// TestRunSequenceLivesInCore keeps "a monitored run" one thing, at the
// source level: outside this package no non-test Go file — bench/
// included — may attach or train a runtime itself, attach a System past
// Runtime.Attach, or start and bind jobs. Every rig calls Run, so the
// multi-job guard, the reference run, the workload binding, the final
// flush, the trace writer's error and the release of the workers cannot
// be forgotten by the next copy. The facade takes the steps one by one
// because its callers time them. Give AttachOptions or Run's hook what a
// new rig needs instead of adding a call site.
func TestRunSequenceLivesInCore(t *testing.T) {
	if offenders := runSequence.repo(t); len(offenders) > 0 {
		t.Errorf("run sequence assembled outside internal/core — call core.Run instead:\n  %s",
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
	if got := runSequence.in("internal/rig/run.go", copyOfTheSequence); len(got) != 3 {
		t.Errorf("scan flagged %d lines of a hand-rolled run sequence, want 3: %q", len(got), got)
	}
	for _, exempt := range []string{"internal/rig/run_test.go", "internal/core/run.go", "README.md"} {
		if got := runSequence.in(exempt, copyOfTheSequence); got != nil {
			t.Errorf("%s is exempt, scan flagged %q", exempt, got)
		}
	}
	const handRolledRun = `package main

func main() {
	rt, _ := sc.Build()
	sys, _ := rt.Attach(core.AttachOptions{})
	rt.Train(nil)
}
`
	if got := runSequence.in("cmd/flowpulse-rig/main.go", handRolledRun); len(got) != 2 {
		t.Errorf("scan flagged %d lines of a hand-rolled Build, Attach, Train, want 2: %q", len(got), got)
	}
	if got := runSequence.in("internal/experiments/fig2.go", handRolledRun); len(got) != 2 {
		t.Errorf("an Attach beside fig2's one Train went unflagged: %q", got)
	}
	if got := runSequence.in("flowpulse.go", "sys, err := c.rt.Attach(opts)\nreturn c.rt.Train(nil)\n"); got != nil {
		t.Errorf("scan flagged the facade's steps: %q", got)
	}
	if got := runSequence.in("cmd/flowpulse-rig/main.go", "rt, sys, err := core.Run(sc, opts, nil)\n"); got != nil {
		t.Errorf("scan flagged the run itself: %q", got)
	}
}

// TestFaultInjectionLivesInCore keeps "a silent fault on a link" one
// thing: a rig lists it in Scenario.Faults (or, from a hook, calls
// Runtime.Inject / Runtime.Heal), so its RNG stream is named in one place,
// the goodput timeline is marked, and a traced run carries the ground
// truth flowpulse-trace sweep labels iterations with. A rig that reaches
// past the injector gets the fault and loses the rest.
func TestFaultInjectionLivesInCore(t *testing.T) {
	if offenders := faultInjection.repo(t); len(offenders) > 0 {
		t.Errorf("silent fault injected outside internal/core — list it in Scenario.Faults or call Runtime.Inject / Runtime.Heal:\n  %s",
			strings.Join(offenders, "\n  "))
	}
	if offenders := faultRecords.repo(t); len(offenders) > 0 {
		t.Errorf("ground-truth fault record written outside internal/core — Runtime.Inject and Runtime.Heal write it:\n  %s",
			strings.Join(offenders, "\n  "))
	}
}

// TestFaultInjectionScanCatchesACopy plants the bug the two scans exist
// for: the hand-rolled injection every rig used to carry.
func TestFaultInjectionScanCatchesACopy(t *testing.T) {
	const handRolled = `package rig

func inject(rt *core.Runtime, trc *trace.Writer) {
	link := rt.Link(ref)
	rt.Net.InjectFault(link, rt.Net.DirToward(link, leaf), fault.BlackHole{})
	trc.Fault(trace.FaultRecord{Kind: "blackhole"})
	rt.Net.ClearFault(link)
}
`
	if got := faultInjection.in("internal/rig/run.go", handRolled); len(got) != 2 {
		t.Errorf("scan flagged %d fabric calls of a hand-rolled injection, want 2: %q", len(got), got)
	}
	if got := faultRecords.in("bench/sim.go", handRolled); len(got) != 1 {
		t.Errorf("scan flagged %d hand-written fault records, want 1: %q", len(got), got)
	}
	for _, exempt := range []string{"internal/rig/run_test.go", "internal/core/fault.go", "internal/fabric/link.go"} {
		if got := faultInjection.in(exempt, handRolled); got != nil {
			t.Errorf("%s is exempt, scan flagged %q", exempt, got)
		}
	}
	if got := faultRecords.in("internal/trace/format.go", handRolled); got != nil {
		t.Errorf("internal/trace is exempt, scan flagged %q", got)
	}
	if got := faultInjection.in("flowpulse.go", "c.rt.Inject(f)\nc.rt.Heal(f)\n"); got != nil {
		t.Errorf("scan flagged the injector itself: %q", got)
	}
}

// TestEngineModeIsThreeDecisions keeps "which engine is this?" from
// coming back. Every run is a sim.Group; the fabric's domain rule
// (fabric.Network.After and Call) decides between a call and a post, and
// the dual determinism contract is three commented decisions keyed on
// "more than one domain". Code that needs to hand work to another domain
// calls the rule; code that believes it needs a fourth decision says so in
// DESIGN.md decision 12 and in engineMode's list.
func TestEngineModeIsThreeDecisions(t *testing.T) {
	if offenders := engineMode.repo(t); len(offenders) > 0 {
		t.Errorf("engine-mode check outside the listed sites — use fabric.Network.After/Call, or Domains() at a listed decision:\n  %s",
			strings.Join(offenders, "\n  "))
	}
}

// TestEngineModeScanCatchesACopy plants the forks the scan exists for:
// the four spellings PR 24 removed 19 of.
func TestEngineModeScanCatchesACopy(t *testing.T) {
	const fork = `package rig

type gen struct {
	par bool
}

func (g *gen) send(net *fabric.Network, rt *core.Runtime, fn sim.Handler) {
	if grp := net.Group(); grp != nil {
		grp.PostLax(0, 1, 0, fn)
	}
	if rt.EngineGroup == nil || !g.par {
		fn(0)
	}
	if net.Domains() > 1 {
		fn(0)
	}
	if cfg.Group != nil {
		return
	}
}
`
	if got := engineMode.in("internal/rig/gen.go", fork); len(got) != 5 {
		t.Errorf("scan flagged %d lines of a forked generator, want 5: %q", len(got), got)
	}
	for _, exempt := range []string{"internal/rig/gen_test.go", "internal/sim/group.go", "DESIGN.md"} {
		if got := engineMode.in(exempt, fork); got != nil {
			t.Errorf("%s is exempt, scan flagged %q", exempt, got)
		}
	}
	const decision = "\tif s.net.Domains() > 1 {\n"
	if got := engineMode.in("internal/core/fault.go", decision); got != nil {
		t.Errorf("scan flagged a listed decision: %q", got)
	}
	if got := engineMode.in("internal/core/fault.go", decision+decision); len(got) != 2 {
		t.Errorf("a second decision in a file listed for one went unflagged: %q", got)
	}
	if got := engineMode.in("internal/rig/gen.go", "net.After(0, net.DomainOf(h), off, fn)\nnet.Call(dom, 0, fn)\nfor d := 0; d < g.Domains(); d++ {\n"); got != nil {
		t.Errorf("scan flagged the domain rule's callers: %q", got)
	}
}
