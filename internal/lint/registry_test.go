package lint

// TestAllAnalyzersRegistered closes the registration gap: an analyzer can be
// written, tested and green while cmd/simlint never runs it. The test parses
// this package's own sources for every `var X = &Analyzer{...}` declaration
// and requires each one in All() — by identity, not just by name, so a
// copy-pasted stale entry cannot satisfy it either.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// declaredAnalyzers scans the package's non-test sources for package-level
// `var <Name> = &Analyzer{...}` declarations and returns the variable names.
func declaredAnalyzers(t *testing.T) []string {
	t.Helper()
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	var names []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || filepath.Ext(name) != ".go" || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs := spec.(*ast.ValueSpec)
				for i, id := range vs.Names {
					if i >= len(vs.Values) {
						break
					}
					ue, ok := vs.Values[i].(*ast.UnaryExpr)
					if !ok || ue.Op != token.AND {
						continue
					}
					cl, ok := ue.X.(*ast.CompositeLit)
					if !ok {
						continue
					}
					if tid, ok := cl.Type.(*ast.Ident); ok && tid.Name == "Analyzer" {
						names = append(names, id.Name)
					}
				}
			}
		}
	}
	sort.Strings(names)
	return names
}

func TestAllAnalyzersRegistered(t *testing.T) {
	declared := declaredAnalyzers(t)
	if len(declared) == 0 {
		t.Fatal("found no analyzer declarations; the scan is broken")
	}

	// The declared variable names resolved to their actual values, compared
	// by identity against All().
	byName := map[string]*Analyzer{
		"SimClock":       SimClock,
		"SeededRand":     SeededRand,
		"DetRange":       DetRange,
		"TelemetryGuard": TelemetryGuard,
		"HotPath":        HotPath,
		"AllocBudget":    AllocBudget,
		"SingleWriter":   SingleWriter,
		"Directives":     Directives,
	}
	var missing []string
	for _, name := range declared {
		if _, ok := byName[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		t.Fatalf("analyzer variable(s) %v declared in the package but unknown to this test; add them to byName AND lint.All()", missing)
	}
	if len(byName) != len(declared) {
		t.Fatalf("test maps %d analyzers but the package declares %d: %v", len(byName), len(declared), declared)
	}

	all := All()
	registered := make(map[*Analyzer]bool, len(all))
	for _, a := range all {
		if a == nil {
			t.Fatal("All() contains a nil analyzer")
		}
		if registered[a] {
			t.Errorf("All() lists analyzer %q twice", a.Name)
		}
		registered[a] = true
	}
	for _, name := range declared {
		if !registered[byName[name]] {
			t.Errorf("analyzer %s is declared but missing from All(); cmd/simlint will never run it", name)
		}
	}
	if len(all) != len(declared) {
		t.Errorf("All() has %d entries, package declares %d analyzers", len(all), len(declared))
	}

	// Every analyzer is fully formed: distinct non-empty name, doc, and run
	// function.
	seen := map[string]bool{}
	for _, a := range all {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v is incomplete", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
		if reflect.ValueOf(a.Run).IsNil() {
			t.Errorf("analyzer %q has a nil Run", a.Name)
		}
	}
}
