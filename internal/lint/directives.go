package lint

// knownDirectives maps each recognised //lint: directive name to whether it
// requires a justification.
var knownDirectives = map[string]bool{
	"hotpath":          false, // annotation, not a waiver
	"allocbudget":      true,  // annotation with arguments: <N> <reason> (allocbudget validates the shape)
	"singlewriter":     true,  // annotation with argument: <domain> (singlewriter validates it)
	"allow-walltime":   true,
	"allow-globalrand": true,
	"allow-maprange":   true,
	"allow-unguarded":  true,
	"allow-alloc":      true,
	"allow-concurrent": true,
}

// Directives validates the lint directives themselves: every //lint: comment
// must name a known directive, and every allow-* waiver must state a reason.
// A typo'd directive name would otherwise silently waive nothing while the
// author believes the site is covered — or worse, a bare waiver would
// accumulate with no recorded justification.
var Directives = &Analyzer{
	Name: "directives",
	Doc:  "reject unknown //lint: directives and allow-* waivers without a reason",
	Run:  runDirectives,
}

func runDirectives(pass *Pass) {
	for _, d := range pass.directives {
		needsReason, known := knownDirectives[d.name]
		switch {
		case !known:
			pass.Reportf(d.pos, "unknown lint directive //lint:%s", d.name)
		case needsReason && d.reason == "":
			pass.Reportf(d.pos, "//lint:%s requires a reason: //lint:%s <why this site is safe>", d.name, d.name)
		}
	}
}
