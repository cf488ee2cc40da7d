package main

import (
	"strings"
	"testing"
	"time"

	"flowpulse/internal/trace"
)

// Every gate the benchmark trusts is shown here to catch a planted
// bug: a run that reports failed == 0 means something only if a broken
// run would not.

func testRig(t *testing.T) *rig {
	t.Helper()
	r, err := startRig()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.stop)
	return r
}

func TestFlippedFrameByteFailsTheSession(t *testing.T) {
	rec := mustSynthesize(t, testSpecA, 7)
	r := testRig(t)
	if _, why := tcpSession(r.tcpAddr, "clean", rec.raw, rec.windows, len(rec.planted)); why != "" {
		t.Fatalf("clean session failed: %s", why)
	}
	frames, err := splitFrames(rec.raw)
	if err != nil {
		t.Fatal(err)
	}
	// One bit, inside the payload of a window frame halfway through.
	f := frames[len(frames)/2]
	if f.kind != trace.KindWindow {
		t.Fatalf("frame %d is kind %d, want a window", len(frames)/2, f.kind)
	}
	bad := append([]byte(nil), rec.raw...)
	bad[(f.off+f.end)/2] ^= 0x10
	if _, why := tcpSession(r.tcpAddr, "flipped", bad, rec.windows, len(rec.planted)); why == "" {
		t.Error("a session with a flipped frame byte passed its gate")
	}
	if _, err := splitFrames(bad); err == nil {
		t.Error("the frame splitter accepted a frame that fails its CRC")
	}
}

func TestWrongFingerprintFailsParity(t *testing.T) {
	rec := mustSynthesize(t, testSpecA, 7)
	r := testRig(t)

	// Sequential: a recording whose trailer pins the fingerprint of an
	// event-free run, streamed to a server that does raise the events.
	noEvents, err := encodeRecording(rec.spec, rec.planted, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, why := tcpSession(r.tcpAddr, "wrong-trailer", noEvents, rec.windows, len(rec.planted))
	if !strings.Contains(why, "parity=mismatch") {
		t.Errorf("wrong trailer fingerprint: gate said %q, want a parity mismatch", why)
	}

	// Fanout: the harness expects a bucket fingerprint the offline
	// replay does not give.
	if _, why := httpSession(r.httpURL, "clean", rec); why != "" {
		t.Fatalf("clean fanout session failed: %s", why)
	}
	wrong := *rec
	wrong.bucketFP ^= 1
	if _, why := httpSession(r.httpURL, "wrong-fp", &wrong); !strings.Contains(why, "fingerprint") {
		t.Errorf("wrong expected bucket fingerprint: gate said %q", why)
	}
}

func TestDroppedAlertLineIsAMissingAlert(t *testing.T) {
	rec := mustSynthesize(t, testSpecA, 7)
	cfg := smokeScale.cfg
	cfg.seconds = 0.2
	victim := rec.planted[1]
	spec := serveTCPSpec{
		burstInterval: 200 * time.Microsecond,
		dropLine: func(k alertKey) bool {
			return k.leaf == victim.leaf && k.iter == victim.iter && k.uplink == victim.uplink
		},
	}
	res, err := runServeTCP(spec, rec, cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.failed != 1 || !strings.Contains(res.failures[0], "never arrived") {
		t.Errorf("one alert line dropped: failed=%d %v, want exactly one missing alert", res.failed, res.failures)
	}
	if got := res.layer["serve.alerts_dropped"]; got != 1 {
		t.Errorf("serve.alerts_dropped = %v, want 1", got)
	}
}

func TestSimFingerprintTellsRunsApart(t *testing.T) {
	// The determinism gate compares two builds' fingerprints; it means
	// something only if the fingerprint moves when the run does.
	s := simSpec{name: "sim-ring", leaves: 8, spines: 4, bytesPerRank: 1 << 20, itersPerSec: 1}
	var fps []string
	for _, seed := range []uint64{5, 5, 6} {
		b, err := s.train(seed, 8, nil)
		if err != nil {
			t.Fatal(err)
		}
		faulty := b.cluster.Runtime().Link(s.faultLink(seed))
		if q := b.mon.Quarantined(); len(q) != 1 || q[0] != faulty {
			t.Errorf("seed %d: quarantined %v, want [%d]", seed, q, faulty)
		}
		fps = append(fps, b.fingerprint())
		b.cluster.Close()
	}
	if fps[0] != fps[1] {
		t.Errorf("two builds of seed 5 disagree: %s vs %s", fps[0], fps[1])
	}
	if fps[0] == fps[2] {
		t.Errorf("seeds 5 and 6 share the fingerprint %s", fps[0])
	}
}
