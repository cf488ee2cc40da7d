package serve

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"strconv"
	"strings"

	"flowpulse/internal/monitor"
	"flowpulse/internal/remediate"
)

// Rule routes matching alerts to one sink. Matchers AND together; the
// zero matcher matches everything.
type Rule struct {
	// Name labels the rule's lines in the log sink and its errors in
	// the server log (default "rule-<index>").
	Name string `json:"name"`
	// MinDeviation matches alerts whose |deviation| is at least this.
	MinDeviation float64 `json:"min_deviation"`
	// Job, when non-nil, matches only this job id.
	Job *uint16 `json:"job"`
	// Kind filters on the localization verdict ("local-link",
	// "remote-link", "indeterminate"; empty: any).
	Kind string `json:"kind"`
	// Actions extends the rule to remediation actions (sequential
	// sessions): they carry no deviation, so only Job/Sink apply.
	Actions bool `json:"actions"`
	// Sink: "stream" (the /alerts NDJSON feed), "log" (the server
	// log), or "file" (append NDJSON to Path — the webhook stand-in:
	// point Path at a FIFO or tail it into a real webhook relay).
	Sink string `json:"sink"`
	Path string `json:"path"`
}

// ParseRule compiles the compact CLI form, comma-separated k=v:
//
//	min_dev=0.1,job=3,kind=local-link,sink=file,path=/tmp/alerts.ndjson
func ParseRule(s string) (Rule, error) {
	r := Rule{Sink: "stream"}
	for _, f := range strings.Split(s, ",") {
		if f = strings.TrimSpace(f); f == "" {
			continue
		}
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			return r, fmt.Errorf("serve: rule field %q is not k=v", f)
		}
		switch k {
		case "name":
			r.Name = v
		case "min_dev", "min_deviation":
			x, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return r, fmt.Errorf("serve: rule min_dev %q: %w", v, err)
			}
			r.MinDeviation = x
		case "job":
			x, err := strconv.ParseUint(v, 10, 16)
			if err != nil {
				return r, fmt.Errorf("serve: rule job %q: %w", v, err)
			}
			j := uint16(x)
			r.Job = &j
		case "kind":
			r.Kind = v
		case "actions":
			r.Actions = v == "true" || v == "1"
		case "sink":
			r.Sink = v
		case "path":
			r.Path = v
		default:
			return r, fmt.Errorf("serve: unknown rule field %q", k)
		}
	}
	return r, nil
}

// compiledRule is a Rule with its sink opened.
type compiledRule struct {
	Rule
	file *os.File
}

// ruleSet evaluates every alert against the configured routes. With no
// rules configured, one catch-all feeds the alert stream. It is
// immutable once compiled, so sessions route concurrently with no lock
// of its own: each sink serializes its own writers (the hub its mutex,
// os.File.Write per file, Logf by contract).
type ruleSet struct {
	rules []*compiledRule
	logf  func(format string, args ...any)
}

func compileRules(rules []Rule, logf func(string, ...any)) (*ruleSet, error) {
	rs := &ruleSet{logf: logf}
	if len(rules) == 0 {
		rules = []Rule{{Name: "default", Sink: "stream", Actions: true}}
	}
	for i, r := range rules {
		if r.Name == "" {
			r.Name = fmt.Sprintf("rule-%d", i)
		}
		cr := &compiledRule{Rule: r}
		switch r.Sink {
		case "stream", "log":
		case "file":
			if r.Path == "" {
				return nil, fmt.Errorf("serve: rule %s: file sink needs path", r.Name)
			}
			f, err := os.OpenFile(r.Path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return nil, fmt.Errorf("serve: rule %s: %w", r.Name, err)
			}
			cr.file = f
		default:
			return nil, fmt.Errorf("serve: rule %s: unknown sink %q", r.Name, r.Sink)
		}
		rs.rules = append(rs.rules, cr)
	}
	return rs, nil
}

// close closes the file sinks; nothing may route afterwards.
func (rs *ruleSet) close() {
	for _, r := range rs.rules {
		if r.file != nil {
			r.file.Close()
		}
	}
}

// alertLine is the NDJSON schema for one server-side detection.
type alertLine struct {
	Type      string  `json:"type"` // "alert" | "action"
	Session   string  `json:"session"`
	Job       uint16  `json:"job"`
	Leaf      int     `json:"leaf"`
	Uplink    int     `json:"uplink,omitempty"`
	Iter      uint32  `json:"iter,omitempty"`
	Deviation float64 `json:"deviation,omitempty"`
	Predicted float64 `json:"predicted,omitempty"`
	Observed  float64 `json:"observed,omitempty"`
	Verdict   string  `json:"verdict,omitempty"`
	Links     []int   `json:"links,omitempty"`
	Action    string  `json:"action,omitempty"`
	Link      int     `json:"link,omitempty"`
	Detail    string  `json:"detail,omitempty"`
	AtNanos   int64   `json:"at_ns"`
}

// marshal encodes the line. JSON has no number for a non-finite float,
// and a ghost-traffic alert's deviation is +Inf by design
// (detect.Deviation): a line carrying one writes that field as null
// rather than failing to encode and never reaching a sink.
func (al *alertLine) marshal() ([]byte, error) {
	if finite(al.Deviation) && finite(al.Predicted) && finite(al.Observed) {
		return json.Marshal(al)
	}
	return json.Marshal(struct {
		*alertLine
		Deviation jsonFloat `json:"deviation,omitempty"`
		Predicted jsonFloat `json:"predicted,omitempty"`
		Observed  jsonFloat `json:"observed,omitempty"`
	}{al, jsonFloat(al.Deviation), jsonFloat(al.Predicted), jsonFloat(al.Observed)})
}

func finite(x float64) bool { return !math.IsInf(x, 0) && !math.IsNaN(x) }

// jsonFloat is a float64 that encodes a non-finite value as null.
type jsonFloat float64

func (f jsonFloat) MarshalJSON() ([]byte, error) {
	if !finite(float64(f)) {
		return []byte("null"), nil
	}
	return json.Marshal(float64(f))
}

// dispatch routes one detection. Runs on the session goroutine; the
// event may reference the session's window storage, so the line is
// fully serialized here and only the copy travels.
func (rs *ruleSet) dispatch(h *hub, session string, e *monitor.Event) {
	al := alertLine{
		Type:      "alert",
		Session:   session,
		Job:       e.Alert.Job,
		Leaf:      e.Alert.LeafOrdinal,
		Uplink:    e.Alert.Uplink,
		Iter:      e.Alert.Iter,
		Deviation: e.Alert.Deviation,
		Predicted: e.Alert.Predicted,
		Observed:  e.Alert.Observed,
		Verdict:   e.Verdict.Kind.String(),
		AtNanos:   int64(e.Alert.At),
	}
	for _, l := range e.Verdict.Links {
		al.Links = append(al.Links, int(l))
	}
	rs.route(h, &al, math.Abs(e.Alert.Deviation), false)
}

// dispatchAction routes one replayed remediation action.
func (rs *ruleSet) dispatchAction(h *hub, session string, a *remediate.Action) {
	al := alertLine{
		Type:    "action",
		Session: session,
		Action:  a.Kind.String(),
		Link:    int(a.Link),
		Detail:  a.Detail,
		AtNanos: int64(a.At),
	}
	rs.route(h, &al, 0, true)
}

func (rs *ruleSet) route(h *hub, al *alertLine, absDev float64, isAction bool) {
	var line []byte
	for _, r := range rs.rules {
		if isAction {
			if !r.Actions {
				continue
			}
		} else if absDev < r.MinDeviation || r.Kind != "" && r.Kind != al.Verdict {
			continue
		}
		if r.Job != nil && *r.Job != al.Job {
			continue
		}
		if line == nil {
			var err error
			if line, err = al.marshal(); err != nil {
				rs.logf("serve: marshal alert: %v", err)
				return
			}
			line = append(line, '\n')
		}
		switch r.Sink {
		case "stream":
			h.publish(line)
		case "log":
			rs.logf("serve: [%s] %s", r.Name, line[:len(line)-1])
		case "file":
			if _, err := r.file.Write(line); err != nil {
				rs.logf("serve: rule %s write: %v", r.Name, err)
			}
		}
	}
}
