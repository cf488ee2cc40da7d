// Command flowpulse-trace analyzes .fpt traces: versioned binary
// recordings of a monitored run (measurement windows with their live
// predictions, detections, remediation actions, probe rounds, and the
// injected fault schedule as ground truth). flowpulse-sim -trace records
// one.
//
// A recording decouples simulation from analysis: `replay` re-runs the
// detect → localize → remediate stack offline — bit-identically, or
// under what-if overrides — and `sweep` reproduces a full ROC curve
// from one recording without re-simulating anything.
//
// Usage (from the repository root):
//
//	flowpulse-sim -shards 0 -scenario cmd/flowpulse-sim/testdata/bg-remediate.json -trace run.fpt
//	                                                      # simulate + record a run file
//	flowpulse-trace replay run.fpt                        # verify bit-identical replay
//	flowpulse-trace replay -threshold 0.02 run.fpt        # what-if: different threshold
//	flowpulse-trace replay -predictor learned run.fpt     # what-if: learned model
//	flowpulse-trace sweep run.fpt                         # ROC across thresholds
//	flowpulse-trace sweep -at 0.01 a.fpt b.fpt            # one operating point, many traces
//	flowpulse-trace stat run.fpt                          # header + record counts
//	flowpulse-trace cat run.fpt                           # dump every record
//	flowpulse-trace cat -stream localhost:9465 run.fpt    # replay into flowpulse-serve
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"flowpulse/internal/detect"
	"flowpulse/internal/metrics"
	"flowpulse/internal/serve"
	"flowpulse/internal/sim"
	"flowpulse/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

const usage = `usage: flowpulse-trace <command> [flags] [trace.fpt ...]

commands:
  replay   re-run a recording through detect -> localize -> remediate offline
  sweep    compute ROC points across thresholds from recording(s)
  stat     print header, record counts, and fingerprint
  cat      dump every record, or -stream it into a flowpulse-serve instance

Run 'flowpulse-trace <command> -h' for command flags.`

func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		fmt.Fprintln(stderr, usage)
		return 2
	}
	cmd, rest := args[0], args[1:]
	switch cmd {
	case "replay":
		return cmdReplay(rest, stdout, stderr)
	case "sweep":
		return cmdSweep(rest, stdout, stderr)
	case "stat":
		return cmdStat(rest, stdout, stderr)
	case "cat":
		return cmdCat(rest, stdout, stderr)
	case "-h", "-help", "--help", "help":
		fmt.Fprintln(stdout, usage)
		return 0
	}
	fmt.Fprintf(stderr, "flowpulse-trace: unknown command %q\n%s\n", cmd, usage)
	return 2
}

// parseThreshold parses a threshold under the detector's validity rule.
func parseThreshold(s string) (float64, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err == nil {
		err = detect.Config{Threshold: v}.Validate()
	}
	return v, err
}

// thresholdFlag defines a threshold flag: parsing refuses a value
// parseThreshold refuses, naming the flag.
func thresholdFlag(fs *flag.FlagSet, name string, v float64, usage string) *float64 {
	fs.Func(name, usage, func(s string) (err error) {
		v, err = parseThreshold(s)
		return err
	})
	return &v
}

func openTrace(path string, stderr io.Writer) (*os.File, bool) {
	f, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return nil, false
	}
	return f, true
}

func cmdReplay(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		threshold = thresholdFlag(fs, "threshold", 0, "override the detection threshold (0 = recorded)")
		predictor = fs.String("predictor", "", "override the load model: recorded|learned")
		first     = fs.Uint("first", 0, "replay iterations >= this (0 = from start)")
		last      = fs.Uint("last", 0, "replay iterations <= this (0 = to end)")
		verbose   = fs.Bool("v", false, "print every offline event and action")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: flowpulse-trace replay [flags] <trace.fpt>")
		return 2
	}
	f, ok := openTrace(fs.Arg(0), stderr)
	if !ok {
		return 1
	}
	defer f.Close()
	opts := trace.ReplayOptions{
		Threshold: *threshold,
		Predictor: *predictor,
		FirstIter: uint32(*first),
		LastIter:  uint32(*last),
	}
	rr, err := trace.Replay(f, opts)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	whatIf := *threshold != 0 || *predictor == "learned" || *first != 0 || *last != 0

	fmt.Fprintf(stdout, "replayed %d window(s) through detect -> localize -> remediate\n", rr.Windows)
	fmt.Fprintf(stdout, "offline: %d event(s), %d action(s); recorded online: %d event(s), %d action(s)\n",
		len(rr.Events), len(rr.Actions), len(rr.RecordedEvents), len(rr.RecordedActions))
	if *verbose {
		for _, e := range rr.Events {
			fmt.Fprintf(stdout, "  event  %v\n", e.Alert)
			if e.Alert.Deviation < 0 {
				fmt.Fprintf(stdout, "         %v\n", e.Verdict)
			}
		}
		for _, a := range rr.Actions {
			fmt.Fprintf(stdout, "  action %v\n", a)
		}
	}
	switch {
	case whatIf:
		fmt.Fprintln(stdout, "fingerprint: what-if replay (overrides active, no equality expected)")
	case rr.Trailer == nil:
		fmt.Fprintln(stdout, "fingerprint: recording truncated (no trailer); cannot verify")
		return 1
	case rr.Matches():
		fmt.Fprintf(stdout, "fingerprint: match (%#016x) — offline replay is bit-identical to the online run\n", rr.Fingerprint)
	default:
		fmt.Fprintf(stdout, "fingerprint: MISMATCH (offline %#016x, online %#016x)\n",
			rr.Fingerprint, rr.Trailer.Fingerprint)
		return 1
	}
	return 0
}

func parseThresholds(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := parseThreshold(part)
		if err != nil {
			return nil, fmt.Errorf("bad threshold %q: %v", part, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func cmdSweep(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	fs.SetOutput(stderr)
	thresholds := metrics.DefaultThresholds()
	fs.Func("thresholds", "comma-separated thresholds (default: the paper's 0.1%..5% sweep)", func(s string) (err error) {
		thresholds, err = parseThresholds(s)
		return err
	})
	at := thresholdFlag(fs, "at", 0, "also report the operating point at this threshold")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() == 0 {
		fmt.Fprintln(stderr, "usage: flowpulse-trace sweep [flags] <trace.fpt ...>")
		return 2
	}
	var samples []metrics.Sample
	for _, path := range fs.Args() {
		f, ok := openTrace(path, stderr)
		if !ok {
			return 1
		}
		rr, err := trace.Replay(f, trace.ReplayOptions{})
		f.Close()
		if err != nil {
			fmt.Fprintf(stderr, "%s: %v\n", path, err)
			return 1
		}
		samples = append(samples, rr.Samples()...)
	}
	fmt.Fprintf(stdout, "%d sample(s) from %d recording(s)\n", len(samples), fs.NArg())
	fmt.Fprintf(stdout, "%-10s %8s %8s\n", "threshold", "FPR", "FNR")
	for _, p := range metrics.ROC(samples, thresholds) {
		fmt.Fprintf(stdout, "%9.2f%% %7.2f%% %7.2f%%\n", 100*p.Threshold, 100*p.FPR, 100*p.FNR)
	}
	if *at > 0 {
		fpr, fnr := metrics.RatesAt(samples, *at)
		fmt.Fprintf(stdout, "@ %.2f%%: FPR %.2f%% / FNR %.2f%%\n", 100**at, 100*fpr, 100*fnr)
	}
	return 0
}

func cmdStat(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("stat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: flowpulse-trace stat <trace.fpt>")
		return 2
	}
	f, ok := openTrace(fs.Arg(0), stderr)
	if !ok {
		return 1
	}
	defer f.Close()
	rd, err := trace.NewReader(f)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	hdr := rd.Header()
	fmt.Fprintf(stdout, "trace:       v%d", hdr.FormatVersion)
	if hdr.Label != "" {
		fmt.Fprintf(stdout, " (label %q)", hdr.Label)
	}
	fmt.Fprintln(stdout)
	fmt.Fprintf(stdout, "topology:    %dx%d fat tree, %d host(s)/leaf, trunk %d, %g Gb/s\n",
		hdr.Leaves, hdr.Spines, hdr.HostsPerLeaf, hdr.Trunk, float64(hdr.LinkRateBPS)/1e9)
	plane := "single-job"
	if hdr.Shared {
		plane = fmt.Sprintf("shared (%d jobs)", len(hdr.Jobs))
	}
	fmt.Fprintf(stdout, "plane:       %s\n", plane)
	for _, j := range hdr.Jobs {
		fmt.Fprintf(stdout, "job %-5d    predictor=%s threshold=%.2f%% min-predicted=%g agg-symmetry=%t\n",
			j.Job, j.Predictor, 100*j.Threshold, j.MinPredicted, j.AggregateSymmetry)
	}
	if hdr.Remediate != nil {
		fmt.Fprintf(stdout, "remediation: on (K=%d, M=%d, probes=%d)\n",
			hdr.Remediate.ConfirmWindows, hdr.Remediate.CleanProbes, hdr.Remediate.ProbePackets)
	} else {
		fmt.Fprintln(stdout, "remediation: off")
	}

	var t trace.Trailer
	var trailer *trace.Trailer
	var slot trace.WindowRecord // windows are only counted: decode them all into one
	dest := func(uint16, int) *trace.WindowRecord { return &slot }
	for {
		rec, err := rd.NextInto(dest)
		if err == io.EOF {
			break
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		switch rec.Kind {
		case trace.KindWindow:
			t.Windows++
		case trace.KindEvent:
			t.Events++
		case trace.KindAction:
			t.Actions++
		case trace.KindProbe:
			t.ProbeRounds++
		case trace.KindFault:
			t.Faults++
		case trace.KindTrailer:
			trailer = rec.Trailer
		}
	}
	fmt.Fprintf(stdout, "records:     windows=%d events=%d actions=%d probe-rounds=%d faults=%d\n",
		t.Windows, t.Events, t.Actions, t.ProbeRounds, t.Faults)
	if trailer == nil {
		fmt.Fprintln(stdout, "trailer:     MISSING (recording truncated)")
		return 1
	}
	if t.Windows != trailer.Windows || t.Events != trailer.Events || t.Actions != trailer.Actions ||
		t.ProbeRounds != trailer.ProbeRounds || t.Faults != trailer.Faults {
		fmt.Fprintf(stdout, "trailer:     COUNT MISMATCH (trailer says windows=%d events=%d actions=%d probe-rounds=%d faults=%d)\n",
			trailer.Windows, trailer.Events, trailer.Actions, trailer.ProbeRounds, trailer.Faults)
		return 1
	}
	fmt.Fprintln(stdout, "trailer:     present, counts match")
	fmt.Fprintf(stdout, "fingerprint: %#016x\n", trailer.Fingerprint)
	fmt.Fprintf(stdout, "end time:    %v\n", sim.Duration(trailer.EndTime))
	return 0
}

// catStream turns a recording into a producer: pipe the raw .fpt bytes
// to a flowpulse-serve instance and print the session status it
// returns — the streamed/offline parity check from the command line.
// The server checks a sequential stream against the trailer itself; a
// fan-out stream's order-insensitive sum is checked here, against an
// offline replay of the same file.
func catStream(f *os.File, path, addr, token, mode, label string, stdout, stderr io.Writer) int {
	if label == "" {
		label = filepath.Base(path)
	}
	p, err := serve.DialProducer(addr, token, mode, label, 5*time.Second)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if _, err := io.Copy(p, f); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	st, err := p.Close()
	if err != nil {
		fmt.Fprintln(stderr, err)
		if st != nil && st.Error != "" {
			fmt.Fprintf(stderr, "server: %s\n", st.Error)
		}
		return 1
	}
	fmt.Fprintf(stdout, "streamed %s to %s\n", path, addr)
	fmt.Fprintf(stdout, "session=%s mode=%s windows=%d events=%d actions=%d\n",
		st.Session, st.Mode, st.Windows, st.Events, st.Actions)
	fmt.Fprintf(stdout, "fingerprint: %#016x (trailer %#016x) parity=%s\n",
		st.Fingerprint, st.TrailerFingerprint, st.Parity)
	switch st.Parity {
	case "mismatch":
		return 1
	case "bucket":
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		rr, err := trace.Replay(f, trace.ReplayOptions{NoHistory: true})
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		if rr.BucketFingerprint != st.Fingerprint {
			fmt.Fprintf(stdout, "bucket parity: MISMATCH (offline %#016x)\n", rr.BucketFingerprint)
			return 1
		}
		fmt.Fprintln(stdout, "bucket parity: match")
	}
	return 0
}

func cmdCat(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cat", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		stream = fs.String("stream", "", "instead of dumping, replay the recording into a flowpulse-serve instance at this host:port and print its status")
		token  = fs.String("token", "", "producer token for -stream")
		mode   = fs.String("mode", "", "fingerprint the serve session reports for -stream: seq (global, checked against the trailer) or fanout (per-(job, leaf) sum, checked here against offline replay); default seq")
		label  = fs.String("label", "", "session label for -stream (default: the file name)")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: flowpulse-trace cat [-stream host:port] <trace.fpt>")
		return 2
	}
	f, ok := openTrace(fs.Arg(0), stderr)
	if !ok {
		return 1
	}
	defer f.Close()
	if *stream != "" {
		return catStream(f, fs.Arg(0), *stream, *token, *mode, *label, stdout, stderr)
	}
	rd, err := trace.NewReader(f)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	var slot trace.WindowRecord // each window is printed and dropped: decode into one
	dest := func(uint16, int) *trace.WindowRecord { return &slot }
	for {
		rec, err := rd.NextInto(dest)
		if err == io.EOF {
			return 0
		}
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		switch rec.Kind {
		case trace.KindWindow:
			w := rec.Window
			ready := ""
			if !w.Ready {
				ready = " (predictor warming up)"
			}
			fmt.Fprintf(stdout, "window  job=%d leaf=%d iter=%d ports=%d senders=%d packets=%d closed=%v%s\n",
				w.Job, w.LeafOrd, w.Iter, len(w.PortBytes), len(w.Senders()), w.Packets,
				sim.Duration(w.ClosedAt), ready)
		case trace.KindEvent:
			fmt.Fprintf(stdout, "event   %v | %v\n", rec.Event.Alert, rec.Event.Verdict)
		case trace.KindAction:
			fmt.Fprintf(stdout, "action  %v\n", *rec.Action)
		case trace.KindProbe:
			p := rec.Probe
			fmt.Fprintf(stdout, "probe   link=%d sent=%d lost=%d at=%v\n", p.Link, p.Sent, p.Lost, sim.Duration(p.At))
		case trace.KindFault:
			ft := rec.Fault
			verb := "inject"
			if ft.Clear {
				verb = "clear"
			}
			fmt.Fprintf(stdout, "fault   %s %s leaf=%d spine=%d trunk=%d upstream=%t rate=%.4f onset-iter=%d at=%v\n",
				verb, ft.Kind, ft.LeafOrd, ft.SpineOrd, ft.Trunk, ft.Upstream, ft.Rate, ft.OnsetIter, sim.Duration(ft.At))
		case trace.KindTrailer:
			t := rec.Trailer
			fmt.Fprintf(stdout, "trailer windows=%d events=%d actions=%d probe-rounds=%d faults=%d fingerprint=%#016x end=%v\n",
				t.Windows, t.Events, t.Actions, t.ProbeRounds, t.Faults, t.Fingerprint, sim.Duration(t.EndTime))
		}
	}
}
