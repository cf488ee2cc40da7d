package flowpulse

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// deadExportAllow lists the exported identifiers no non-test file
// references that stay anyway, each with the reason. TestNoDeadExports
// fails on an unlisted dead export AND on a listed one that is no longer
// dead, so the list only shrinks.
var deadExportAllow = map[string]string{
	// The facade's enums are exported whole: scenario files name the
	// kinds as strings, the examples name one member each.
	"flowpulse.RingAllReduce": "completes the CollectiveKind enum (the Scenario.Collective default)",
	"flowpulse.ReduceScatter": "completes the CollectiveKind enum",
	"flowpulse.AllGather":     "completes the CollectiveKind enum",
	"flowpulse.Simulation":    "completes the PredictorKind enum",
	"flowpulse.Millisecond":   "the README's fault schedule spells a flap period in it",

	"flowpulse.Monitor.DetectorStats": "README \"Parallel jobs\" documents it among the whole-monitor answers",

	"flowpulse/internal/sim.Engine.Step":    "reference implementation: the heap and typed-timer property tests step the engine as the oracle for Run's order",
	"flowpulse/internal/sim.Engine.Stop":    "halts a run from inside an event on both engines; removing it rewrites the event loops, which the one-engine item owns",
	"flowpulse/internal/sim.Engine.Pending": "engine observability next to Executed; the pending-counter properties and the generators' drain tests assert on it",

	"flowpulse/internal/control.Plane.Log":    "only reader of the ChangeSet ledger that Apply, Note and rollback keep so a run can be audited",
	"flowpulse/internal/control.Plane.Alerts": "only reader of the rollback/divergence alerts the plane keeps next to the ledger",

	"flowpulse/internal/monitor.Plane.UnroutedWindows": "routing-health counter: core's clean-run contract asserts it stays zero for every job count and tier",
	"flowpulse/internal/transport.Stack.PairRateBPS":   "test probe: TestDCQCNRateRecoveryShape samples the paced rate to check the cut-and-recover shape of the DCQCN loop",
}

// TestNoDeadExports is the API audit: every exported function, method,
// type, constant and variable of the module must be referenced from a
// non-test file — of
// this module or of bench/, a module of its own that drives the facade
// and probes the layers one by one — or implement an interface, or be
// on deadExportAllow with a reason. An export only tests call is API
// nobody uses: delete it (and the test, if the behaviour goes with it),
// unexport it, or move it into a _test.go file.
func TestNoDeadExports(t *testing.T) {
	im, err := auditedModule()
	if err != nil {
		t.Fatal(err)
	}
	for _, msg := range checkDeadAllow(deadExports(im), deadExportAllow) {
		t.Error(msg)
	}
	if len(deadExportAllow) > 20 {
		t.Errorf("deadExportAllow has %d entries; the budget is 20", len(deadExportAllow))
	}
}

// TestDeadExportScanFindsPlantedBugs runs the scan over a small
// in-memory module: it must report what nothing references, and only
// that, and the allow-list check must reject an entry that has come
// back to life.
func TestDeadExportScanFindsPlantedBugs(t *testing.T) {
	pkgs := []auditPkg{
		{path: "m/lib", files: map[string]string{"lib.go": `package lib

type Shape interface{ Area() int }

type Square struct{ side int }

func New(side int) *Square       { return &Square{side} }
func (s *Square) Area() int      { return s.side * s.side } // called through Shape only
func (s *Square) Side() int      { return s.side }          // referenced from m/app only
func (s *Square) Diagonal() int  { return 0 }               // dead method
func Unused() int                { return helper() }        // dead function
func helper() int                { return UsedInPackage }
const UsedInPackage, Orphan = 1, 2                          // Orphan: dead constant
type Forgotten struct{}                                     // dead type
type Ghost struct{}                                         // dead type, though its method is not:
func (g Ghost) Area() int        { return Ghost{}.Area() }  // Shape could call it
`}},
		{path: "m/app", files: map[string]string{"main.go": `package main

import "m/lib"

func Exported() {} // main packages export nothing

func main() {
	var s lib.Shape = lib.New(2)
	_ = s.Area() + lib.New(3).Side()
}
`}},
	}
	im, err := typeCheck(token.NewFileSet(), pkgs, nil)
	if err != nil {
		t.Fatal(err)
	}
	dead := deadExports(im)
	want := []string{"m/lib.Forgotten", "m/lib.Ghost", "m/lib.Orphan", "m/lib.Square.Diagonal", "m/lib.Unused"}
	if strings.Join(dead, " ") != strings.Join(want, " ") {
		t.Errorf("dead exports = %v, want %v", dead, want)
	}

	allow := map[string]string{
		"m/lib.Forgotten": "kept for the test", "m/lib.Ghost": "kept for the test", "m/lib.Orphan": "kept for the test",
		"m/lib.Square.Diagonal": "kept for the test", "m/lib.Unused": "kept for the test",
	}
	if msgs := checkDeadAllow(dead, allow); len(msgs) != 0 {
		t.Errorf("a complete allow-list was rejected: %v", msgs)
	}
	delete(allow, "m/lib.Unused")
	allow["m/lib.Square.Side"] = "was dead once"
	allow["m/lib.Orphan"] = ""
	msgs := strings.Join(checkDeadAllow(dead, allow), "\n")
	for _, want := range []string{
		"m/lib.Unused: exported, but no non-test file references it",
		"m/lib.Square.Side: on the allow-list but no longer dead",
		"m/lib.Orphan: allow-list entry without a reason",
	} {
		if !strings.Contains(msgs, want) {
			t.Errorf("allow-list check missed %q in:\n%s", want, msgs)
		}
	}
}

// checkDeadAllow compares a scan's result with an allow-list.
func checkDeadAllow(dead []string, allow map[string]string) []string {
	var msgs []string
	found := map[string]bool{}
	for _, id := range dead {
		found[id] = true
		if _, ok := allow[id]; !ok {
			msgs = append(msgs, id+": exported, but no non-test file references it — delete it, unexport it, or allow-list it with a reason")
		}
	}
	for id, reason := range allow {
		if !found[id] {
			msgs = append(msgs, id+": on the allow-list but no longer dead — remove the entry")
		}
		if strings.TrimSpace(reason) == "" {
			msgs = append(msgs, id+": allow-list entry without a reason")
		}
	}
	sort.Strings(msgs)
	return msgs
}

// auditPkg is one package's non-test source, keyed by file name.
type auditPkg struct {
	path  string
	files map[string]string
}

// auditModule reads the non-test Go files of every package under root:
// the main module and bench/, whose import paths both follow from the
// directory ("flowpulse/" + dir).
func auditModule(root string) ([]auditPkg, error) {
	byDir := map[string]*auditPkg{}
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		dir, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		p := byDir[dir]
		if p == nil {
			p = &auditPkg{path: "flowpulse", files: map[string]string{}}
			if dir != "." {
				p.path += "/" + filepath.ToSlash(dir)
			}
			byDir[dir] = p
		}
		p.files[filepath.ToSlash(path)] = string(src)
		return nil
	})
	var pkgs []auditPkg
	for _, p := range byDir {
		pkgs = append(pkgs, *p)
	}
	return pkgs, err
}

// auditImporter type-checks the scanned packages on demand, in import
// order, into one shared types.Info; every other path is the standard
// library's and goes to std.
type auditImporter struct {
	fset *token.FileSet
	src  map[string]auditPkg
	done map[string]*types.Package
	info *types.Info
	std  types.Importer
	// files maps the parsed files of every scanned package to it.
	files map[*ast.File]*types.Package
}

func (im *auditImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.done[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	ap, ok := im.src[path]
	if !ok {
		if im.std == nil {
			return nil, fmt.Errorf("package %s is not part of the scan", path)
		}
		return im.std.Import(path)
	}
	im.done[path] = nil
	names := make([]string, 0, len(ap.files))
	for name := range ap.files {
		names = append(names, name)
	}
	sort.Strings(names)
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(im.fset, name, ap.files[name], parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := (&types.Config{Importer: im}).Check(path, im.fset, files, im.info)
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		im.files[f] = pkg
	}
	im.done[path] = pkg
	return pkg, nil
}

// typeCheck type-checks every package of pkgs into one types.Info.
func typeCheck(fset *token.FileSet, pkgs []auditPkg, std types.Importer) (*auditImporter, error) {
	im := &auditImporter{
		fset: fset, src: map[string]auditPkg{}, done: map[string]*types.Package{}, std: std,
		files: map[*ast.File]*types.Package{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
	}
	for _, p := range pkgs {
		im.src[p.path] = p
	}
	for _, p := range pkgs {
		if _, err := im.Import(p.path); err != nil {
			return nil, fmt.Errorf("%s: %w", p.path, err)
		}
	}
	return im, nil
}

// auditedModule type-checks the module and bench/ once for every audit
// in this package: type-checking the standard library from source
// dominates the run time.
var auditedModule = sync.OnceValues(func() (*auditImporter, error) {
	pkgs, err := auditModule(".")
	if err != nil {
		return nil, err
	}
	// No cgo: the source importer would otherwise run the cgo tool (and a
	// C compiler) over package net.
	cgo := build.Default.CgoEnabled
	build.Default.CgoEnabled = false
	defer func() { build.Default.CgoEnabled = cgo }()
	fset := token.NewFileSet()
	return typeCheck(fset, pkgs, importer.ForCompiler(fset, "source", nil))
})

// deadExports returns, sorted, every exported
// function, method ("pkg.Recv.Name"), type, constant and variable of a
// non-main package that no scanned file references and that does not
// implement a method of an interface — one written in the scanned files
// (declared or inline), or exported by a package they import
// (fmt.Stringer, sort.Interface, error, …) — since those are called
// dynamically.
func deadExports(im *auditImporter) []string {
	// A type's own methods naming it — the receiver, a Clone's result —
	// keep nothing alive: a type only they mention is constructed by no
	// one, whatever interface its methods satisfy.
	self := map[*ast.Ident]bool{}
	for f := range im.files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			var recv types.Object
			ast.Inspect(fd.Recv.List[0].Type, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && recv == nil {
					recv = im.info.Uses[id]
				}
				return recv == nil
			})
			ast.Inspect(fd, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && im.info.Uses[id] == recv {
					self[id] = true
				}
				return true
			})
		}
	}
	used := map[types.Object]bool{}
	for id, obj := range im.info.Uses {
		if self[id] {
			continue
		}
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin() // a call on an instantiated generic type
		}
		used[obj] = true
	}
	// Every interface type written in the scanned files, declared or
	// inline, plus error and the exported interfaces of their imports.
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	for _, tv := range im.info.Types {
		if it, ok := tv.Type.(*types.Interface); ok && tv.IsType() {
			ifaces = append(ifaces, it)
		}
	}
	seen := map[*types.Package]bool{}
	for _, p := range im.done {
		for _, dep := range p.Imports() {
			if seen[dep] || im.done[dep.Path()] != nil {
				continue
			}
			seen[dep] = true
			for _, name := range dep.Scope().Names() {
				if tn, ok := dep.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						ifaces = append(ifaces, it)
					}
				}
			}
		}
	}
	dynamic := func(recv types.Type, name string) bool {
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == name &&
					(types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
					return true
				}
			}
		}
		return false
	}

	var dead []string
	for id, obj := range im.info.Defs {
		if obj == nil || !id.IsExported() || used[obj] || obj.Pkg().Name() == "main" {
			continue
		}
		switch o := obj.(type) {
		case *types.TypeName, *types.Const, *types.Var:
			if o.Parent() == o.Pkg().Scope() {
				dead = append(dead, o.Pkg().Path()+"."+o.Name())
			}
		case *types.Func:
			recv := o.Type().(*types.Signature).Recv()
			if recv == nil {
				dead = append(dead, o.Pkg().Path()+"."+o.Name())
				continue
			}
			rt := recv.Type()
			if p, ok := rt.(*types.Pointer); ok {
				rt = p.Elem()
			}
			named, ok := rt.(*types.Named)
			if !ok || types.IsInterface(named) || dynamic(named, o.Name()) {
				continue
			}
			dead = append(dead, o.Pkg().Path()+"."+named.Obj().Name()+"."+o.Name())
		}
	}
	sort.Strings(dead)
	return dead
}
