package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"flowpulse/internal/core"
	"flowpulse/internal/experiments"
	"flowpulse/internal/metrics"
	"flowpulse/internal/serve"
	"flowpulse/internal/trace"
)

var update = flag.Bool("update", false, "re-record testdata/quick.fpt and rewrite testdata/stat.golden")

// fixture is a small committed recording of testdata/fixture.json: a
// 6x3 fabric, 2 clean + 8 faulty iterations at 5% drop with remediation
// on, so the trace holds every record kind (windows, events, actions,
// probe rounds, fault, trailer).
var fixture = filepath.Join("testdata", "quick.fpt")

// TestStatGolden pins the exact text `flowpulse-trace stat` prints for
// the committed fixture. Recording is deterministic at a fixed seed,
// so any diff is a real format or output change: either a regression,
// or an intentional change to be blessed with
//
//	go test ./cmd/flowpulse-trace -run TestStatGolden -update
//
// (-update also re-records the fixture itself, which is the upgrade
// path when the format version bumps.)
func TestStatGolden(t *testing.T) {
	golden := filepath.Join("testdata", "stat.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		var out, errb bytes.Buffer
		code := run([]string{"record", "-o", fixture,
			"-scenario", filepath.Join("testdata", "fixture.json"), "-label", "stat-golden fixture",
		}, &out, &errb)
		if code != 0 {
			t.Fatalf("record exited %d: %s", code, errb.String())
		}
	}

	var out, errb bytes.Buffer
	if code := run([]string{"stat", fixture}, &out, &errb); code != 0 {
		t.Fatalf("stat exited %d: %s%s", code, out.String(), errb.String())
	}
	got := out.String()

	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create it): %v", err)
	}
	if got != string(want) {
		t.Fatalf("stat output drifted from %s:\n--- want\n%s--- got\n%s(bless intentional changes with -update)",
			golden, want, got)
	}
}

// TestReplayFixture proves the committed fixture still replays
// bit-identically — the compatibility guarantee a reader owes every
// trace an older writer produced.
func TestReplayFixture(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"replay", fixture}, &out, &errb); code != 0 {
		t.Fatalf("replay exited %d:\n%s%s", code, out.String(), errb.String())
	}
	if !bytes.Contains(out.Bytes(), []byte("fingerprint: match")) {
		t.Fatalf("replay did not report a fingerprint match:\n%s", out.String())
	}
}

// trial is the experiments.Trial `record` runs for a run file, recording
// to a temporary file whose path it returns.
func trial(t *testing.T, path string) (experiments.Trial, string) {
	t.Helper()
	doc, err := core.ReadRun(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "run.fpt")
	return experiments.Trial{Scenario: doc.Scenario, Monitor: doc.Monitor, TracePath: out}, out
}

func replaySamples(t *testing.T, path string) []metrics.Sample {
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
	return rr.Samples()
}

// TestOnlineLabelsMatchReplay: for every run file here, the samples a
// trial labels online from its built fault schedule are the samples
// offline replay labels from the recorded one, element for element —
// clean phases, onset 0, a healed fault, and both jobs of a shared
// plane. The committed fixture is fixture.json's recording, so its
// replay must give the same samples too.
func TestOnlineLabelsMatchReplay(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 6 {
		t.Fatalf("%d run files, want the 6 CI records", len(files))
	}
	for _, path := range files {
		tr, out := trial(t, path)
		res, err := tr.Run()
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		jobs := max(len(tr.Scenario.Jobs), 1)
		if len(res.Samples) != jobs*res.Iterations {
			t.Errorf("%s: %d samples, want %d jobs × %d iterations", path, len(res.Samples), jobs, res.Iterations)
		}
		want := [][]metrics.Sample{replaySamples(t, out)}
		if filepath.Base(path) == "fixture.json" {
			want = append(want, replaySamples(t, fixture))
		}
		for _, w := range want {
			if !reflect.DeepEqual(res.Samples, w) {
				t.Errorf("%s: online samples differ from replay:\nonline %+v\nreplay %+v", path, res.Samples, w)
			}
		}
	}
}

// TestRecordCountsBuiltIterations: a run file without "iterations" runs
// the scenario default, and record reports, samples and labels exactly
// the iterations that ran.
func TestRecordCountsBuiltIterations(t *testing.T) {
	dir := t.TempDir()
	path, out := filepath.Join(dir, "clean.json"), filepath.Join(dir, "clean.fpt")
	doc := `{"scenario": {"leaves": 4, "spines": 2, "bytesPerRank": 1048576}}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"record", "-scenario", path, "-o", out}, &stdout, &stderr); code != 0 {
		t.Fatalf("record exited %d: %s", code, stderr.String())
	}
	if want := "8 iterations (8 clean + 0 faulty)"; !strings.Contains(stdout.String(), want) {
		t.Errorf("record said %q, want %q", stdout.String(), want)
	}
	if n := len(replaySamples(t, out)); n != 8 {
		t.Errorf("the recording replays %d samples, want 8", n)
	}
	stdout.Reset()
	if code := run([]string{"stat", out}, &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), "windows=32 ") {
		t.Errorf("stat exited %d: %s", code, stdout.String())
	}
	tr, _ := trial(t, path)
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Iterations != 8 || len(res.Samples) != 8 {
		t.Errorf("trial ran %d iterations, sampled %d; want 8 and 8", res.Iterations, len(res.Samples))
	}
}

// TestThresholdFlagsRefuseBadValues: every threshold a flag or a run
// file supplies passes the detector's validity rule, and a refusal names
// the value.
func TestThresholdFlagsRefuseBadValues(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"scenario": {"leaves": 4, "spines": 2}, "monitor": {"threshold": -0.5}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"record", "-scenario", bad, "-o", filepath.Join(t.TempDir(), "x.fpt")}, 1, "threshold -0.5 must be finite"},
		{[]string{"record", "-at", "-0.01"}, 2, "flag -at: detect: threshold -0.01"},
		{[]string{"replay", "-threshold", "-1", fixture}, 2, "flag -threshold: detect: threshold -1"},
		{[]string{"replay", "-threshold", "NaN", fixture}, 2, "flag -threshold: detect: threshold NaN"},
		{[]string{"sweep", "-thresholds", "0.01,-0.02", fixture}, 2, "flag -thresholds: bad threshold \"-0.02\": detect: threshold -0.02"},
		{[]string{"sweep", "-at", "+Inf", fixture}, 2, "flag -at: detect: threshold +Inf"},
	} {
		var stdout, stderr bytes.Buffer
		code := run(tc.args, &stdout, &stderr)
		if code != tc.code || !strings.Contains(stderr.String(), tc.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit %d naming %q", tc.args, code, stderr.String(), tc.code, tc.want)
		}
	}
}

// TestCatStreamChecksBucketParity: a fan-out session's fingerprint is
// checked against the offline replay of the streamed file, and a
// mismatch exits 1. A stand-in server answers every stream with a
// fixed status.
func TestCatStreamChecksBucketParity(t *testing.T) {
	f, err := os.Open(fixture)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := trace.Replay(f, trace.ReplayOptions{})
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		fp   uint64
		code int
		want string
	}{
		{rr.BucketFingerprint, 0, "bucket parity: match"},
		{rr.BucketFingerprint ^ 1, 1, "bucket parity: MISMATCH"},
	} {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go func() {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			br.ReadString('\n')     // preamble
			io.Copy(io.Discard, br) // the recording, up to the half-close
			json.NewEncoder(conn).Encode(serve.SessionStatus{Mode: serve.ModeFanout, Parity: "bucket", Fingerprint: tc.fp})
		}()
		var stdout, stderr bytes.Buffer
		code := run([]string{"cat", "-stream", l.Addr().String(), "-mode", serve.ModeFanout, fixture}, &stdout, &stderr)
		l.Close()
		if code != tc.code || !strings.Contains(stdout.String(), tc.want) {
			t.Errorf("fingerprint %#016x: exit %d, stdout %q, stderr %q; want exit %d and %q",
				tc.fp, code, stdout.String(), stderr.String(), tc.code, tc.want)
		}
	}
}
