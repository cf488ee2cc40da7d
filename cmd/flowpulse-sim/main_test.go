package main

import (
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"flowpulse"
)

// build builds a document's scenario on the one-domain partition and
// returns the defaulted scenario the cluster runs.
func build(t *testing.T, doc document) flowpulse.Scenario {
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

// TestDefaultFileIsTheBuiltinRun: testdata/default.json spells out the
// run flowpulse-sim makes without -scenario.
func TestDefaultFileIsTheBuiltinRun(t *testing.T) {
	file, err := load("testdata/default.json")
	if err != nil {
		t.Fatal(err)
	}
	def, err := load("")
	if err != nil {
		t.Fatal(err)
	}
	if file.Monitor != def.Monitor {
		t.Errorf("monitor: file %+v, built-in %+v", file.Monitor, def.Monitor)
	}
	if a, b := build(t, file), build(t, def); !reflect.DeepEqual(a, b) {
		t.Errorf("scenario: file %+v\nbuilt-in %+v", a, b)
	}
}

// TestLoadRejectsUnknownKeys: a typo'd key is an error that names it,
// never a field silently left at its default.
func TestLoadRejectsUnknownKeys(t *testing.T) {
	good, err := os.ReadFile("testdata/remediate.json")
	if err != nil {
		t.Fatal(err)
	}
	for typo, key := range map[string]string{`"remediate"`: "remediated", `"iterations"`: "iters", `"onset"`: "faultAt"} {
		bad := strings.Replace(string(good), typo, `"`+key+`"`, 1)
		path := filepath.Join(t.TempDir(), "typo.json")
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := load(path); err == nil || !strings.Contains(err.Error(), `unknown field "`+key+`"`) {
			t.Errorf("typo %q: err = %v, want one naming the key", key, err)
		}
	}
}

// TestReadmeScenariosExist: every `-scenario <file>` README cites is a
// committed file that decodes.
func TestReadmeScenariosExist(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	cited := regexp.MustCompile(`-scenario (\S+\.json)`).FindAllStringSubmatch(string(readme), -1)
	if len(cited) == 0 {
		t.Fatal("README cites no -scenario file")
	}
	for _, m := range cited {
		if _, err := load(filepath.Join("../..", m[1])); err != nil {
			t.Errorf("README cites %s: %v", m[1], err)
		}
	}
}
