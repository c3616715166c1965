// Package lint is a self-contained static-analysis suite that machine-checks
// the repository's two load-bearing contracts:
//
//   - Simulation determinism: identical seeds and traces must produce
//     bit-identical runs, so the virtual-time packages must never read the
//     wall clock, draw from the global math/rand stream, or let map
//     iteration order leak into scheduled events.
//   - Zero-alloc disabled telemetry: every telemetry emission site must
//     guard on the nil sink before constructing its event, and the
//     benchmark-covered hot functions must stay free of allocation-prone
//     constructs.
//
// The suite mirrors the golang.org/x/tools go/analysis architecture
// (Analyzer / Pass / Diagnostic, a multichecker driver, analysistest-style
// golden tests) but is built purely on the standard library's go/ast and
// go/types, because the repository deliberately has no third-party
// dependencies. Packages are loaded through `go list -export`, so the type
// checker consumes the toolchain's own export data and never re-checks
// dependencies from source.
//
// Violations are silenced in place with lint directives:
//
//	//lint:allow-walltime <reason>    (simclock)
//	//lint:allow-globalrand <reason>  (seededrand)
//	//lint:allow-maprange <reason>    (detrange)
//	//lint:allow-unguarded <reason>   (telemetryguard)
//	//lint:allow-alloc <reason>       (hotpath)
//	//lint:allow-concurrent <reason>  (singlewriter)
//	//lint:hotpath                    (marks a function as a checked hot path)
//	//lint:allocbudget <N> <reason>   (declares a heap-escape budget, allocbudget)
//	//lint:singlewriter <domain>      (declares the owning dispatch loop of a domain)
//
// An allow directive applies to the line it trails or the line directly
// below it, and the reason is mandatory: the Directives analyzer rejects
// bare waivers and unknown directive names.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// An Analyzer describes one invariant checker. It is the stdlib-only
// counterpart of golang.org/x/tools/go/analysis.Analyzer.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and directives.
	Name string
	// Doc is a one-paragraph description printed by `simlint -help`.
	Doc string
	// Run inspects one package through pass and reports violations.
	Run func(pass *Pass)
}

// A Diagnostic is one reported violation.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Package is one type-checked package handed to the analyzers.
type Package struct {
	Path  string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
	// LocalPrefixes are import-path prefixes considered "this codebase" (the
	// module path for real runs, the testdata package set under tests).
	// detrange uses it to decide whether a call inside a map-range body can
	// touch simulation state.
	LocalPrefixes []string

	// Escapes holds the compiler's heap-escape facts for this package's
	// files, keyed by absolute file path (see escape.go). HasEscapeFacts
	// distinguishes "the fact pipeline ran and found nothing" from "no facts
	// were computed" (the golden-test loader for analyzers that do not need
	// them): allocbudget only enforces budget arithmetic in the former case,
	// so the other analyzers' tests are not forced to compile their testdata.
	Escapes        map[string][]EscapeFact
	HasEscapeFacts bool

	directives []directive
}

// A Pass carries one analyzer's run over one package and collects its
// diagnostics.
type Pass struct {
	Analyzer *Analyzer
	*Package

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// directive is one parsed //lint:... comment.
type directive struct {
	name   string // e.g. "allow-walltime", "hotpath"
	reason string
	file   string
	line   int
	pos    token.Pos
}

var directiveRE = regexp.MustCompile(`^//lint:([a-z-]+)(?:[ \t]+(.*))?$`)

// parseDirectives extracts every //lint: comment of every file.
func parseDirectives(fset *token.FileSet, files []*ast.File) []directive {
	var ds []directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := directiveRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				reason := m[2]
				// Anything after a nested "//" is commentary about the
				// directive, not its justification.
				if i := strings.Index(reason, "//"); i >= 0 {
					reason = reason[:i]
				}
				ds = append(ds, directive{
					name:   m[1],
					reason: strings.TrimSpace(reason),
					file:   pos.Filename,
					line:   pos.Line,
					pos:    c.Pos(),
				})
			}
		}
	}
	return ds
}

// Allowed reports whether an allow directive of the given name covers pos:
// the directive either trails the offending line or sits on the line
// directly above it.
func (p *Pass) Allowed(name string, pos token.Pos) bool {
	at := p.Fset.Position(pos)
	for _, d := range p.directives {
		if d.name != name || d.file != at.Filename {
			continue
		}
		if d.line == at.Line || d.line == at.Line-1 {
			return true
		}
	}
	return false
}

// funcAnnotated reports whether fn carries a //lint:<name> directive in its
// doc block or on the line directly above the declaration.
func (p *Pass) funcAnnotated(name string, fn *ast.FuncDecl) bool {
	return len(p.funcDirectives(name, fn)) > 0
}

// funcDirectives returns every //lint:<name> directive attached to fn (in its
// doc block or on the line directly above the declaration). Directives carry
// arguments — a budget, a domain name — so annotation-consuming analyzers
// need the parsed records, not just a yes/no.
func (p *Pass) funcDirectives(name string, fn *ast.FuncDecl) []directive {
	declLine := p.Fset.Position(fn.Pos()).Line
	file := p.Fset.Position(fn.Pos()).Filename
	docLine := declLine - 1
	if fn.Doc != nil {
		docLine = p.Fset.Position(fn.Doc.Pos()).Line
	}
	var out []directive
	for _, d := range p.directives {
		if d.name == name && d.file == file && d.line >= docLine-1 && d.line < declLine {
			out = append(out, d)
		}
	}
	return out
}

// isLocal reports whether a package path belongs to the analyzed codebase.
func (p *Package) isLocal(path string) bool {
	for _, pre := range p.LocalPrefixes {
		if path == pre || strings.HasPrefix(path, pre+"/") {
			return true
		}
	}
	return false
}

// callee resolves the called function or method of a call expression, or nil
// for builtins, function-typed variables and other dynamic calls.
func callee(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// builtinName returns the name of the builtin a call invokes ("append",
// "panic", ...), or "".
func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// pathTo returns the chain of AST nodes from file down to the innermost node
// containing pos, outermost first. It is a trimmed-down PathEnclosingInterval.
func pathTo(file *ast.File, pos token.Pos) []ast.Node {
	var path []ast.Node
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if n == nil || pos < n.Pos() || pos >= n.End() {
			return false
		}
		path = append(path, n)
		return true
	}
	ast.Inspect(file, func(n ast.Node) bool {
		if n == nil {
			return false
		}
		return visit(n)
	})
	return path
}

// sortDiagnostics orders diagnostics by file, line, column, analyzer for
// stable output.
func sortDiagnostics(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i], ds[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// Run applies every analyzer to every package and returns the combined,
// position-sorted diagnostics.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		if pkg.directives == nil {
			pkg.directives = parseDirectives(pkg.Fset, pkg.Files)
		}
		for _, a := range analyzers {
			pass := &Pass{Analyzer: a, Package: pkg, diags: &diags}
			a.Run(pass)
		}
	}
	sortDiagnostics(diags)
	return diags
}

// All returns the full simlint suite in a fixed order. Every *Analyzer
// declared in this package must be listed here — TestAllAnalyzersRegistered
// parses the package source and fails on any that is not, so a new analyzer
// cannot be written and then silently left out of cmd/simlint.
func All() []*Analyzer {
	return []*Analyzer{
		SimClock,
		SeededRand,
		DetRange,
		TelemetryGuard,
		HotPath,
		AllocBudget,
		SingleWriter,
		Directives,
	}
}
