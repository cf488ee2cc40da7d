package core

import (
	"reflect"
	"regexp"
	"strings"
	"testing"

	"flowpulse/internal/sim"
)

// TestScenarioJSONKeys: the JSON form of a Scenario has one name per
// knob. Every exported field of every core type a Scenario nests has a
// lowerCamel json key or is marked json:"-", a duration or time field's
// key ends in PS (the unit is picoseconds), and no two fields of one
// type share a key.
func TestScenarioJSONKeys(t *testing.T) {
	lowerCamel := regexp.MustCompile(`^[a-z][a-zA-Z0-9]*$`)
	timed := map[reflect.Type]bool{
		reflect.TypeFor[sim.Duration](): true,
		reflect.TypeFor[sim.Time]():     true,
	}
	pkg := reflect.TypeFor[Scenario]().PkgPath()
	seen := map[reflect.Type]bool{}
	var walk func(typ reflect.Type)
	walk = func(typ reflect.Type) {
		for typ.Kind() == reflect.Slice {
			typ = typ.Elem()
		}
		if typ.Kind() != reflect.Struct || typ.PkgPath() != pkg || seen[typ] {
			return
		}
		seen[typ] = true
		keys := map[string]string{}
		for i := 0; i < typ.NumField(); i++ {
			f := typ.Field(i)
			if !f.IsExported() {
				continue
			}
			tag, ok := f.Tag.Lookup("json")
			if !ok {
				t.Errorf("%s.%s has no json tag", typ.Name(), f.Name)
				continue
			}
			key, _, _ := strings.Cut(tag, ",")
			if key == "-" {
				continue
			}
			if !lowerCamel.MatchString(key) {
				t.Errorf("%s.%s: key %q is not lowerCamel", typ.Name(), f.Name, key)
			}
			if timed[f.Type] && !strings.HasSuffix(key, "PS") {
				t.Errorf("%s.%s: duration key %q does not end in PS", typ.Name(), f.Name, key)
			}
			if other, dup := keys[key]; dup {
				t.Errorf("%s: %s and %s share the key %q", typ.Name(), other, f.Name, key)
			}
			keys[key] = f.Name
			walk(f.Type)
		}
	}
	walk(reflect.TypeFor[Scenario]())
	var names []string
	for typ := range seen {
		names = append(names, typ.Name())
	}
	// Scenario, CongestionSpec, DivergenceSpec, StaleSpec, LeafSpineLink,
	// JobScenario and FaultSpec: a type missing here is one the walk lost.
	if len(seen) != 7 {
		t.Errorf("walked %d types %v, want the 7 a Scenario nests", len(seen), names)
	}
}
