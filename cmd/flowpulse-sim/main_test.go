package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"flowpulse/internal/core"
	"flowpulse/internal/experiments"
	"flowpulse/internal/metrics"
	"flowpulse/internal/trace"
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

// TestReadmeScenariosExist: every `-scenario <file>` README cites for
// flowpulse-sim is a committed file that decodes.
func TestReadmeScenariosExist(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	cited := regexp.MustCompile(`flowpulse-sim\s[^\n]*-scenario (\S+\.json)`).FindAllStringSubmatch(string(readme), -1)
	if len(cited) == 0 {
		t.Fatal("README cites no flowpulse-sim -scenario file")
	}
	for _, m := range cited {
		if _, err := core.ReadRun(filepath.Join("../..", m[1]), nil); err != nil {
			t.Errorf("README cites %s: %v", m[1], err)
		}
	}
}

// TestReadmeTraceExample runs the recording README's "Tracing & offline
// replay" block shows and replays it: the run must seal the fingerprint
// README quotes.
func TestReadmeTraceExample(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`\$ go run \./cmd/flowpulse-sim (.*) -trace run\.fpt\n(?:.*\n)*?fingerprint: match \((0x[0-9a-f]+)\)`).FindStringSubmatch(string(readme))
	if m == nil {
		t.Fatal("README shows no flowpulse-sim -trace recording followed by a replay's fingerprint")
	}
	args := strings.Fields(m[1])
	for i, a := range args {
		if strings.HasSuffix(a, ".json") {
			args[i] = filepath.Join("../..", a)
		}
	}
	out := filepath.Join(t.TempDir(), "run.fpt")
	if err := run(append(args, "-trace", out), io.Discard, io.Discard); err != nil {
		t.Fatal(err)
	}
	rr := replayFile(t, out)
	if got := fmt.Sprintf("%#016x", rr.Fingerprint); !rr.Matches() || got != m[2] {
		t.Errorf("README quotes fingerprint: match (%s); the cited run replays to %s (match %t)", m[2], got, rr.Matches())
	}
}

// writeRun writes a run file to a temporary directory and returns its
// path.
func writeRun(t *testing.T, doc string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// record runs flowpulse-sim on a run file with -trace and returns the
// recording's path and the report.
func record(t *testing.T, path string, shards int) (string, string) {
	t.Helper()
	out := filepath.Join(t.TempDir(), "run.fpt")
	var stdout bytes.Buffer
	if err := run([]string{"-shards", strconv.Itoa(shards), "-scenario", path, "-trace", out}, &stdout, io.Discard); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return out, stdout.String()
}

func replayFile(t *testing.T, path string) *trace.ReplayResult {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rr, err := trace.Replay(f, trace.ReplayOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Trailer == nil {
		t.Fatalf("%s: no trailer", path)
	}
	return rr
}

// TestOnlineLabelsMatchReplay: for every bg-* run file on both
// partitions, the samples experiments.Trial labels online from the built
// fault schedule are the samples offline replay labels from the one
// flowpulse-sim -trace recorded, element for element — clean phases,
// onset 0, a healed fault, and both jobs of a shared plane. The
// committed fixture of flowpulse-trace is bg-fixture's recording, so
// its replay must give the same samples too.
func TestOnlineLabelsMatchReplay(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "bg-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 6 {
		t.Fatalf("%d bg-* run files, want the 6 CI runs on both partitions", len(files))
	}
	for _, path := range files {
		doc, err := core.ReadRun(path, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{0, 2} {
			tr := experiments.Trial{Scenario: doc.Scenario, Monitor: doc.Monitor}
			tr.Scenario.Shards = shards
			res, err := tr.Run()
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			jobs := max(len(tr.Scenario.Jobs), 1)
			if len(res.Samples) != jobs*res.Iterations {
				t.Errorf("%s: %d samples, want %d jobs × %d iterations", path, len(res.Samples), jobs, res.Iterations)
			}
			out, _ := record(t, path, shards)
			want := [][]metrics.Sample{replayFile(t, out).Samples()}
			if shards == 0 && filepath.Base(path) == "bg-fixture.json" {
				want = append(want, replayFile(t, filepath.Join("..", "flowpulse-trace", "testdata", "quick.fpt")).Samples())
			}
			for _, w := range want {
				if !reflect.DeepEqual(res.Samples, w) {
					t.Errorf("%s -shards %d: online samples differ from replay:\nonline %+v\nreplay %+v", path, shards, res.Samples, w)
				}
			}
		}
	}
}

// TestRecordCountsBuiltIterations: a run file without "iterations" runs
// the scenario default, and flowpulse-sim -trace and experiments.Trial
// both run, sample and label exactly the 8 iterations that ran.
func TestRecordCountsBuiltIterations(t *testing.T) {
	path := writeRun(t, `{"scenario": {"leaves": 4, "spines": 2, "bytesPerRank": 1048576}}`)
	out, _ := record(t, path, 0)
	rr := replayFile(t, out)
	if n := len(rr.Samples()); n != 8 {
		t.Errorf("the recording replays %d samples, want 8", n)
	}
	if rr.Trailer.Windows != 32 {
		t.Errorf("the recording holds %d windows, want 4 leaves × 8 iterations", rr.Trailer.Windows)
	}
	doc, err := core.ReadRun(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := experiments.Trial{Scenario: doc.Scenario, Monitor: doc.Monitor}.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 8 || len(res.Samples) != 8 {
		t.Errorf("trial ran %d iterations, sampled %d; want 8 and 8", res.Iterations, len(res.Samples))
	}
	for _, s := range res.Samples {
		if s.Positive {
			t.Errorf("a clean run labelled a sample faulty: %+v", res.Samples)
			break
		}
	}
}

// TestRateZeroFaultIsNoFault: a Bernoulli drop of rate 0 is no fault.
// The report calls the run clean, and the recording holds no fault
// record, so replay labels no sample faulty (FNR is 0 at any threshold).
func TestRateZeroFaultIsNoFault(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "bg-default.json"))
	if err != nil {
		t.Fatal(err)
	}
	doc := strings.Replace(string(raw), `"rate": 0.02`, `"rate": 0`, 1)
	if doc == string(raw) {
		t.Fatal("bg-default.json has no 2% drop to zero")
	}
	out, report := record(t, writeRun(t, doc), 0)
	if !strings.Contains(report, "\nfault: none (clean run)\n") {
		t.Errorf("report header does not call the run clean:\n%s", report)
	}
	rr := replayFile(t, out)
	if rr.Trailer.Faults != 0 || len(rr.Faults) != 0 {
		t.Errorf("recording holds %d fault record(s), trailer counts %d; want none", len(rr.Faults), rr.Trailer.Faults)
	}
	for _, s := range rr.Samples() {
		if s.Positive {
			t.Fatalf("replay labels a sample faulty: %+v", rr.Samples())
		}
	}
}
