// Command simlint runs the repository's determinism, concurrency-discipline
// and allocation-budget lint suite (internal/lint) over the given package
// patterns and exits nonzero if any invariant is violated. CI runs it as a
// blocking job via scripts/lint.sh; locally:
//
//	go run ./cmd/simlint ./...
//
// The suite (see each analyzer's doc in internal/lint):
//
//	simclock        no wall-clock reads in the virtual-time packages
//	seededrand      no global math/rand, no wall-clock-seeded sources
//	detrange        no order-bearing effects under map iteration
//	telemetryguard  nil-sink guard dominates every event construction/Emit
//	hotpath         allocation discipline in benchmark-covered functions
//	allocbudget     //lint:allocbudget heap-escape budgets vs the compiler's
//	                escape analysis (-gcflags=-m=2); exact, not upper bounds
//	singlewriter    //lint:singlewriter ownership domains: no goroutine or
//	                unregistered exported path into single-writer state
//	directives      every //lint: waiver is known and justified
//
// Output formats:
//
//	(default)  file:line:col: message (analyzer), one line per violation
//	-json      a JSON array of {file,line,col,analyzer,message} objects
//	-github    GitHub Actions ::error workflow commands, so violations
//	           surface as inline PR annotations
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"wadc/internal/lint"
)

// jsonDiagnostic is the -json wire form of one violation.
type jsonDiagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

func main() {
	list := flag.Bool("analyzers", false, "print the analyzer suite and exit")
	asJSON := flag.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	asGitHub := flag.Bool("github", false, "emit diagnostics as GitHub Actions ::error annotations")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: simlint [-json|-github] [packages]\n\nAnalyzers:\n")
		for _, a := range lint.All() {
			fmt.Fprintf(os.Stderr, "  %-15s %s\n", a.Name, a.Doc)
		}
		flag.PrintDefaults()
	}
	flag.Parse()
	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-15s %s\n", a.Name, a.Doc)
		}
		return
	}
	if *asJSON && *asGitHub {
		fmt.Fprintln(os.Stderr, "simlint: -json and -github are mutually exclusive")
		os.Exit(2)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := lint.Load(patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	diags := lint.Run(pkgs, lint.All())

	switch {
	case *asJSON:
		out := make([]jsonDiagnostic, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiagnostic{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	case *asGitHub:
		for _, d := range diags {
			fmt.Printf("::error file=%s,line=%d,col=%d,title=simlint %s::%s\n",
				d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, githubEscape(d.Message))
		}
	default:
		for _, d := range diags {
			fmt.Println(d)
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d violation(s)\n", len(diags))
		os.Exit(1)
	}
}

// githubEscape encodes the characters GitHub workflow commands treat as
// message terminators or property separators.
func githubEscape(s string) string {
	return strings.NewReplacer(
		"%", "%25",
		"\r", "%0D",
		"\n", "%0A",
	).Replace(s)
}
