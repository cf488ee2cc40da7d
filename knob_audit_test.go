package flowpulse

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
	"testing"
)

// unsetKnobAllow lists the configuration fields no non-test file sets
// that stay anyway, each with the reason. TestNoUnsetKnobs fails on an
// unlisted unset field AND on a listed one that has gained a writer, so
// the list only shrinks.
var unsetKnobAllow = map[string]string{
	"flowpulse/internal/core.Scenario.Job": "bench/sim.go reads Scenario().Job to find the first job's id, and this PR may not touch bench/",

	"flowpulse/internal/simtest.Options.MutateDetect": "the oracle self-test: TestInjectedDetectorBugCaught plants a detector bug through it and requires the oracles to trip",

	"flowpulse/internal/fabric.Config.XoffBytes":   "the PFC tests lower the pause threshold so a two-host rig pauses at all",
	"flowpulse/internal/fabric.Config.XonBytes":    "the PFC tests set the resume threshold with XoffBytes to pin the pause/resume hysteresis",
	"flowpulse/internal/fabric.Config.SprayMemory": "TestDecayMemoIsExact checks the load estimator's decay memo against math.Exp at two time constants",

	"flowpulse/internal/topology.FatTreeConfig.Propagation": "TestPartitionLookaheadIsMinSwitchLinkDelay needs a delay other than the default to show the lookahead follows it",

	"flowpulse/internal/predict.LearnedConfig.RebaselineAfter": "the re-baseline tests shorten the healthier-window streak to script it window by window",

	"flowpulse/internal/transport.Config.FixedRTO":       "reference behaviour: the RTT tests compare the adaptive timer against the paper's fixed 5 µs one",
	"flowpulse/internal/transport.Config.DisableBackoff": "reference behaviour: the timer tests need retransmissions at a constant spacing to count them",
	"flowpulse/internal/transport.Config.MaxRetries":     "the black-hole tests bound the give-up so an undeliverable message fails in a few timeouts, not 64",
	"flowpulse/internal/transport.Config.MTU":            "TestPacketsForAndWireBytes checks the packetization arithmetic at sizes that are not powers of two",
	"flowpulse/internal/transport.Config.HeaderBytes":    "TestPacketsForAndWireBytes, with MTU",

	"flowpulse/internal/workload.BackgroundConfig.Until": "the generator tests end a free-running generator at a set time; a scenario stops it with Stop when the last job finishes",
	"flowpulse/internal/workload.IncastConfig.Until":     "as BackgroundConfig.Until",
	"flowpulse/internal/workload.StormConfig.Until":      "as BackgroundConfig.Until",
	"flowpulse/internal/workload.IncastConfig.OnBurst":   "the statistics test timestamps bursts through it to check the exponential inter-burst gaps",
	"flowpulse/internal/workload.StormConfig.OnMean":     "the duty-cycle statistics and the stop-mid-burst test shape the on/off phases",
	"flowpulse/internal/workload.StormConfig.OffMean":    "with OnMean",
	"flowpulse/internal/workload.JobConfig.TrackValues":  "reference check: the reduction-checksum tests prove the collectives reduce correctly, sharded engine included",
}

// TestNoUnsetKnobs is the option audit, the dead-export audit's sibling:
// every exported field of an exported configuration struct — a type
// named *Config, *Spec or *Options, or Scenario, Grid or Trial — must be
// written by a non-test file of the module or of bench/ (a keyed or
// positional composite literal, an assignment, or its address taken for
// a flag, or reflect's FieldByName with its name), or be on
// unsetKnobAllow with a reason. Defaulting does not count: a write by the
// field's own package inside a function named setDefaults, or guarded by
// an if that tests the same field, only replaces the zero value. A field
// nobody sets is an option with one value in use: make it a constant.
func TestNoUnsetKnobs(t *testing.T) {
	im, err := auditedModule()
	if err != nil {
		t.Fatal(err)
	}
	knobs, unset := unsetKnobs(im)
	t.Logf("%d settable configuration fields, %d of them set only by tests or not at all", knobs, len(unset))
	for _, msg := range checkKnobAllow(unset, unsetKnobAllow) {
		t.Error(msg)
	}
}

// TestUnsetKnobScanFindsPlantedBugs runs the scan over a small in-memory
// module: a field counts as set only for a real write.
func TestUnsetKnobScanFindsPlantedBugs(t *testing.T) {
	pkgs := []auditPkg{
		{path: "m/lib", files: map[string]string{"lib.go": `package lib

type Config struct {
	Keyed, Assigned, Flagged, Nested int
	Defaulted, Guarded, Unset        int // no writer but a default
	ByName, Foreign                  int
	private                          int
}

type PairSpec struct{ A, B int } // set positionally
type Options struct{ Inner Config }
type Helper struct{ NotAKnob int }

func (c *Config) setDefaults() {
	if c.Defaulted == 0 {
		c.Defaulted = 1
	}
	c.Unset = c.private
}

func New(c Config) Config {
	if c.Guarded <= 0 {
		c.Guarded = 2
	}
	return c
}
`}},
		{path: "m/app", files: map[string]string{"main.go": `package main

import "m/lib"

type Config struct{ MainsOwn int } // main packages are not scanned

func intVar(*int) {}

type value struct{}

func (value) FieldByName(string) value { return value{} }

func main() {
	c := lib.Config{Keyed: 1}
	if c.Foreign == 0 {
		c.Foreign = 7 // another package's choice is a value in use, not a default
	}
	value{}.FieldByName("ByName")
	c.Assigned = 2
	intVar(&c.Flagged)
	var o lib.Options
	o.Inner.Nested++
	_ = lib.New(c)
	_ = lib.PairSpec{1, 2}
}
`}},
	}
	im, err := typeCheck(token.NewFileSet(), pkgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	knobs, unset := unsetKnobs(im)
	want := []string{"m/lib.Config.Defaulted", "m/lib.Config.Guarded", "m/lib.Config.Unset"}
	if knobs != 12 || strings.Join(unset, " ") != strings.Join(want, " ") {
		t.Errorf("scan found %d knobs, unset %v; want 12 and %v", knobs, unset, want)
	}

	allow := map[string]string{"m/lib.Config.Defaulted": "r", "m/lib.Config.Guarded": "r", "m/lib.Config.Unset": "r"}
	if msgs := checkKnobAllow(unset, allow); len(msgs) != 0 {
		t.Errorf("a complete allow-list was rejected: %v", msgs)
	}
	delete(allow, "m/lib.Config.Unset")
	allow["m/lib.Config.Keyed"] = "was unset once"
	msgs := strings.Join(checkKnobAllow(unset, allow), "\n")
	for _, want := range []string{
		"m/lib.Config.Unset: no non-test file sets this field",
		"m/lib.Config.Keyed: on the allow-list but a non-test file sets it now",
	} {
		if !strings.Contains(msgs, want) {
			t.Errorf("allow-list check missed %q in:\n%s", want, msgs)
		}
	}
}

// checkKnobAllow compares a scan's result with an allow-list.
func checkKnobAllow(unset []string, allow map[string]string) []string {
	var msgs []string
	found := map[string]bool{}
	for _, id := range unset {
		found[id] = true
		if _, ok := allow[id]; !ok {
			msgs = append(msgs, id+": no non-test file sets this field — make it a constant, or allow-list it with the reason a test needs it")
		}
	}
	for id, reason := range allow {
		if !found[id] {
			msgs = append(msgs, id+": on the allow-list but a non-test file sets it now — remove the entry")
		}
		if strings.TrimSpace(reason) == "" {
			msgs = append(msgs, id+": allow-list entry without a reason")
		}
	}
	sort.Strings(msgs)
	return msgs
}

// isKnobStruct reports whether a type name marks a configuration struct.
func isKnobStruct(name string) bool {
	for _, suffix := range []string{"Config", "Spec", "Options"} {
		if strings.HasSuffix(name, suffix) {
			return true
		}
	}
	return name == "Scenario" || name == "Grid" || name == "Trial"
}

// unsetKnobs counts the exported fields of the exported configuration
// structs of im's non-main packages and returns, sorted, those no
// scanned file writes ("pkg.Type.Field").
func unsetKnobs(im *auditImporter) (knobs int, unset []string) {
	names := map[*types.Var]string{}
	for _, pkg := range im.done {
		if pkg.Name() == "main" {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() || !isKnobStruct(name) {
				continue
			}
			if st, ok := tn.Type().Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); f.Exported() {
						names[f] = pkg.Path() + "." + name + "." + f.Name()
					}
				}
			}
		}
	}

	set := map[*types.Var]bool{}
	// field resolves the struct field an expression selects, if any.
	field := func(e ast.Expr) *types.Var {
		if sel, ok := e.(*ast.SelectorExpr); ok {
			if v, ok := im.info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
				return v
			}
		}
		return nil
	}
	var (
		pkg        *types.Package // of the file being walked
		inDefaults bool           // inside a function named setDefaults
		guards     []ast.Expr     // conditions of the enclosing if statements
	)
	// defaulted reports whether a write to v at this point of the walk is
	// v's own package filling in its zero value.
	defaulted := func(v *types.Var) bool {
		if v.Pkg() != pkg {
			return false
		}
		found := inDefaults
		for _, cond := range guards {
			ast.Inspect(cond, func(n ast.Node) bool {
				if e, ok := n.(ast.Expr); ok && field(e) == v {
					found = true
				}
				return !found
			})
		}
		return found
	}
	// write marks the field e names, and — a.B[i].C = x sets B as much
	// as C — every field on the path to it.
	write := func(e ast.Expr) {
		for leaf := true; ; leaf = false {
			switch x := e.(type) {
			case *ast.IndexExpr:
				e = x.X
				continue
			case *ast.StarExpr:
				e = x.X
				continue
			case *ast.ParenExpr:
				e = x.X
				continue
			}
			v := field(e)
			if v == nil || leaf && defaulted(v) {
				return
			}
			set[v] = true
			e = e.(*ast.SelectorExpr).X
		}
	}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			inDefaults = n.Name.Name == "setDefaults"
		case *ast.CallExpr:
			// reflect.Value.FieldByName("X") sets whatever knob is named X.
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "FieldByName" && len(n.Args) == 1 {
				if lit, ok := n.Args[0].(*ast.BasicLit); ok {
					for v := range names {
						if lit.Value == `"`+v.Name()+`"` {
							set[v] = true
						}
					}
				}
			}
		case *ast.IfStmt:
			if n.Init != nil {
				ast.Inspect(n.Init, visit)
			}
			guards = append(guards, n.Cond)
			ast.Inspect(n.Body, visit)
			guards = guards[:len(guards)-1]
			if n.Else != nil {
				ast.Inspect(n.Else, visit)
			}
			return false
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				write(lhs)
			}
		case *ast.IncDecStmt:
			write(n.X)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				write(n.X)
			}
		case *ast.CompositeLit:
			tv, ok := im.info.Types[n]
			if !ok {
				break
			}
			st, ok := tv.Type.Underlying().(*types.Struct)
			if !ok {
				break
			}
			for i, elt := range n.Elts {
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					if v, ok := im.info.Uses[kv.Key.(*ast.Ident)].(*types.Var); ok {
						set[v] = true
					}
				} else {
					set[st.Field(i)] = true
				}
			}
		}
		return true
	}
	for f, p := range im.files {
		pkg = p
		ast.Inspect(f, visit)
	}

	for v, name := range names {
		if !set[v] {
			unset = append(unset, name)
		}
	}
	sort.Strings(unset)
	return len(names), unset
}
