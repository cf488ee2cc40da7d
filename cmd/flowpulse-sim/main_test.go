package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"flowpulse/internal/core"
)

// TestScenarioFilesDecodeAndBuild: every committed scenario file decodes
// strictly and builds.
func TestScenarioFilesDecodeAndBuild(t *testing.T) {
	files, err := filepath.Glob("testdata/*.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 12 {
		t.Fatalf("%d scenario files, want at least the 12 the behaviour diff runs", len(files))
	}
	for _, path := range files {
		doc, err := core.ReadRun(path, builtin)
		if err != nil {
			t.Errorf("%v", err)
			continue
		}
		doc.Scenario.Shards = 0
		rt, err := doc.Scenario.Build()
		if err != nil {
			t.Errorf("%s: %v", path, err)
			continue
		}
		rt.Close()
	}
}

// TestLoadRejectsUnknownKeys: a typo'd key is an error that names it,
// never a field silently left at its default; so is a monitor setting
// no detector can run with.
func TestLoadRejectsUnknownKeys(t *testing.T) {
	good, err := os.ReadFile("testdata/remediate.json")
	if err != nil {
		t.Fatal(err)
	}
	for edit, want := range map[[2]string]string{
		{`"remediate"`, `"remediated"`}:            `unknown field "remediated"`,
		{`"iterations"`, `"iters"`}:                `unknown field "iters"`,
		{`"onset"`, `"faultAt"`}:                   `unknown field "faultAt"`,
		{`"threshold": 0.01`, `"threshold": -0.5`}: "threshold -0.5 must be finite and ≥ 0",
	} {
		bad := strings.Replace(string(good), edit[0], edit[1], 1)
		path := filepath.Join(t.TempDir(), "bad.json")
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := core.ReadRun(path, builtin); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want %q", edit[1], err, want)
		}
	}
}

// TestCEDiscountApplied: a run file's monitor.ceDiscount reaches the
// detector. Under congestion with CE marking the discount changes how
// many windows alert, and the report carries the discounted count.
func TestCEDiscountApplied(t *testing.T) {
	const file = `{"scenario": {"leaves": 8, "spines": 4, "bytesPerRank": 4194304, "iterations": 3, "seed": 1,
  "congestion": {"ecn": true, "dcqcn": true, "ecnKMin": 16384, "ecnKMax": 65536,
    "incastPS": 60000000, "incastLeaf": 1, "incastFanout": 2, "incastBytes": 65536, "incastHigh": true,
    "stormPS": 12000000, "stormBytes": 65536}},
 "monitor": {"ceDiscount": 1.5}}`
	path := filepath.Join(t.TempDir(), "congested.json")
	if err := os.WriteFile(path, []byte(file), 0o644); err != nil {
		t.Fatal(err)
	}
	doc, err := core.ReadRun(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	alerts := map[float64]int{}
	for _, discount := range []float64{0, 1.5} {
		doc.Monitor.CEDiscount = discount
		_, sys, err := core.Run(doc.Scenario, doc.Monitor.AttachOptions(), nil)
		if err != nil {
			t.Fatal(err)
		}
		alerts[discount] = len(sys.Jobs()[0].Pipeline.Events)
	}
	if alerts[0] == alerts[1.5] {
		t.Fatalf("%d alerts with and without the discount: the run does not exercise it", alerts[0])
	}
	var stdout bytes.Buffer
	if err := run([]string{"-shards", "0", "-scenario", path}, &stdout, io.Discard); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("\n%d alert(s):\n", alerts[1.5]); !strings.Contains(stdout.String(), want) {
		t.Errorf("report lacks %q (%d alerts undiscounted):\n%s", want, alerts[0], stdout.String())
	}
}

// TestReadmeScenariosExist: every `-scenario <file>` README cites, for
// flowpulse-sim or for flowpulse-trace record, is a committed file that
// decodes.
func TestReadmeScenariosExist(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	cited := regexp.MustCompile(`(flowpulse-sim|flowpulse-trace record)\s[^\n]*-scenario (\S+\.json)`).FindAllStringSubmatch(string(readme), -1)
	by := map[string]int{}
	for _, m := range cited {
		by[m[1]]++
		if _, err := core.ReadRun(filepath.Join("../..", m[2]), nil); err != nil {
			t.Errorf("README cites %s: %v", m[2], err)
		}
	}
	if by["flowpulse-sim"] == 0 || by["flowpulse-trace record"] == 0 {
		t.Fatalf("README cites -scenario files %v times per command, want both commands", by)
	}
}
