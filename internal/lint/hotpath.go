package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// HotPathRequired names the functions the hot-path benchmarks cover
// (BenchmarkSimProcessSwitch*, BenchmarkNetTransfer*,
// BenchmarkDataflowPipeline*, BenchmarkMonitorPiggyback*,
// BenchmarkCostModelEvaluate*): the scheduler core, the mailbox primitives,
// the transfer/data-plane sends, the monitor's piggyback path and the
// placement cost model. Each must carry a //lint:hotpath
// annotation so the allocation checks below watch it; renaming or moving one
// fails the lint until this list is updated, which is the point — the
// benchmark surface is part of the contract.
var HotPathRequired = map[string][]string{
	"wadc/internal/sim": {
		"(*Kernel).schedule",
		"(*Kernel).Emit",
		"(*Mailbox).Send",
		"(*Mailbox).Recv",
		"(*Proc).Hold",
	},
	"wadc/internal/netmodel": {
		"(*Network).Send",
		"(*Network).deliver",
	},
	"wadc/internal/dataflow": {
		"(*node).send",
		"(*node).sendData",
		"(*node).readImage",
	},
	"wadc/internal/monitor": {
		"(*System).BeforeSend",
		"(*System).AfterDeliver",
		"(*Cache).Record",
	},
	"wadc/internal/plan": {
		"CostModel.Evaluate",
	},
}

// HotPath flags allocation-prone constructs inside functions annotated
// //lint:hotpath: fmt formatting calls, string concatenation inside loops,
// non-deferred closures, and scalar arguments boxed into interface
// parameters. Arguments to panic are exempt — a panicking simulation is
// already off the measured path. It also requires the annotation on every
// function listed in HotPathRequired, so the benchmark-covered surface
// cannot silently drift out from under the checks.
var HotPath = &Analyzer{
	Name: "hotpath",
	Doc: "flag fmt calls, in-loop string concatenation, closures and scalar->interface boxing in " +
		"//lint:hotpath functions, and require the annotation on benchmark-covered functions " +
		"(waive a site with //lint:allow-alloc)",
	Run: runHotPath,
}

func runHotPath(pass *Pass) {
	annotated := make(map[string]bool)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			if pass.funcAnnotated("hotpath", fd) {
				annotated[funcKey(fd)] = true
				if fd.Body != nil {
					checkHotFunc(pass, fd)
				}
			}
		}
	}
	declared := make(map[string]token.Pos)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				declared[funcKey(fd)] = fd.Pos()
			}
		}
	}
	for _, key := range HotPathRequired[pass.Path] {
		if annotated[key] {
			continue
		}
		if pos, ok := declared[key]; ok {
			pass.Reportf(pos,
				"%s is covered by the hot-path benchmarks and must be annotated //lint:hotpath so its allocation discipline is machine-checked", key)
		} else if len(pass.Files) > 0 {
			pass.Reportf(pass.Files[0].Name.Pos(),
				"hot-path function %s.%s is required by the lint configuration but no longer exists; update lint.HotPathRequired alongside the benchmarks", pass.Path, key)
		}
	}
}

// funcKey renders a FuncDecl as "Name", "T.Name" or "(*T).Name".
func funcKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	switch t := fd.Recv.List[0].Type.(type) {
	case *ast.StarExpr:
		if id, ok := t.X.(*ast.Ident); ok {
			return fmt.Sprintf("(*%s).%s", id.Name, fd.Name.Name)
		}
	case *ast.Ident:
		return fmt.Sprintf("%s.%s", t.Name, fd.Name.Name)
	}
	return fd.Name.Name
}

// checkHotFunc reports allocation-prone constructs inside one annotated
// function body.
func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	// Ranges exempt from the checks: arguments of panic calls (cold by
	// definition) and deferred closures (unwind safety costs one allocation
	// per call, accepted and benchmarked).
	var exempt []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if builtinName(pass.Info, n) == "panic" {
				for _, arg := range n.Args {
					exempt = append(exempt, arg)
				}
			}
		case *ast.DeferStmt:
			if lit, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				exempt = append(exempt, lit.Type)
			}
		}
		return true
	})
	exempted := func(pos token.Pos) bool {
		for _, n := range exempt {
			if within(n, pos) {
				return true
			}
		}
		return false
	}

	// Loop body ranges, for the string-concatenation check.
	var loops []ast.Node
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
			loops = append(loops, n)
		}
		return true
	})
	inLoop := func(pos token.Pos) bool {
		for _, l := range loops {
			if within(l, pos) {
				return true
			}
		}
		return false
	}

	report := func(pos token.Pos, format string, args ...any) {
		if exempted(pos) || pass.Allowed("allow-alloc", pos) {
			return
		}
		pass.Reportf(pos, format, args...)
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn := callee(pass.Info, n); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
				report(n.Pos(),
					"fmt.%s allocates on the //lint:hotpath function %s; format off the hot path or annotate //lint:allow-alloc <reason>",
					fn.Name(), fd.Name.Name)
			}
			checkBoxing(pass, fd, n, report)
		case *ast.FuncLit:
			if !exempted(n.Pos()) {
				report(n.Pos(),
					"closure allocates its captures on the //lint:hotpath function %s; hoist it or annotate //lint:allow-alloc <reason>",
					fd.Name.Name)
			}
		case *ast.BinaryExpr:
			if n.Op != token.ADD || !inLoop(n.Pos()) {
				return true
			}
			tv, ok := pass.Info.Types[n]
			if !ok || tv.Value != nil { // constants fold at compile time
				return true
			}
			if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
				report(n.Pos(),
					"string concatenation inside a loop on the //lint:hotpath function %s allocates per iteration; build once outside the loop or annotate //lint:allow-alloc <reason>",
					fd.Name.Name)
			}
		}
		return true
	})
}

// checkBoxing flags basic-typed (scalar or string) arguments passed to
// interface parameters: the conversion heap-allocates the value on every
// call.
func checkBoxing(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr, report func(token.Pos, string, ...any)) {
	tv, ok := pass.Info.Types[call.Fun]
	if !ok {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	if call.Ellipsis != token.NoPos {
		return // a spread slice is passed as-is, nothing is boxed per element
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		if !types.IsInterface(pt) {
			continue
		}
		atv, ok := pass.Info.Types[arg]
		if !ok {
			continue
		}
		b, ok := atv.Type.Underlying().(*types.Basic)
		if !ok || b.Kind() == types.UntypedNil {
			continue
		}
		if atv.Value != nil {
			continue // constants convert to interface through static data
		}
		report(arg.Pos(),
			"%s argument boxed into interface parameter allocates on the //lint:hotpath function %s; pass a concrete type or annotate //lint:allow-alloc <reason>",
			b.Name(), fd.Name.Name)
	}
}
