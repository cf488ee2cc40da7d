package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"flowpulse"
	"flowpulse/internal/core"
)

// build builds a document's scenario on the one-domain partition and
// returns the defaulted scenario the cluster runs.
func build(t *testing.T, doc core.RunDoc) flowpulse.Scenario {
	t.Helper()
	doc.Scenario.Shards = 0
	cluster, err := flowpulse.New(doc.Scenario)
	if err != nil {
		t.Fatal(err)
	}
	defer cluster.Close()
	return cluster.Scenario()
}

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
		doc, err := load(path)
		if err != nil {
			t.Errorf("%v", err)
			continue
		}
		build(t, doc)
	}
}

// TestLoadRejectsUnknownKeys: a typo'd key is an error that names it,
// never a field silently left at its default; so is a monitor setting
// no detector can run with, and one this command cannot deploy.
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
		{`"threshold": 0.01`, `"ceDiscount": 2`}:   "ceDiscount is not supported",
	} {
		bad := strings.Replace(string(good), edit[0], edit[1], 1)
		path := filepath.Join(t.TempDir(), "bad.json")
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := load(path); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: err = %v, want %q", edit[1], err, want)
		}
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
