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
	"strings"
	"testing"

	"flowpulse/internal/core"
	"flowpulse/internal/serve"
	"flowpulse/internal/trace"
)

var update = flag.Bool("update", false, "re-record testdata/quick.fpt and rewrite testdata/stat.golden")

// fixture is a small committed recording of
// ../flowpulse-sim/testdata/bg-fixture.json: a 6x3 fabric, 2 clean + 8
// faulty iterations at 5% drop with remediation on, so the trace holds
// every record kind (windows, events, actions, probe rounds, fault,
// trailer).
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
		doc, err := core.ReadRun(filepath.Join("..", "flowpulse-sim", "testdata", "bg-fixture.json"), nil)
		if err != nil {
			t.Fatal(err)
		}
		doc.Scenario.Shards = 0
		opts := doc.Monitor.AttachOptions()
		opts.TracePath, opts.TraceLabel = fixture, "stat-golden fixture"
		if _, _, err := core.Run(doc.Scenario, opts, nil); err != nil {
			t.Fatalf("recording the fixture: %v", err)
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

// TestThresholdFlagsRefuseBadValues: every threshold a flag supplies
// passes the detector's validity rule, and a refusal names the value.
func TestThresholdFlagsRefuseBadValues(t *testing.T) {
	for _, tc := range []struct {
		args []string
		code int
		want string
	}{
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
