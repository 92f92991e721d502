// Package ctxflow flags context.Background() and context.TODO() where
// they sever a caller's cancellation and deadline chain, so a
// cancelled session would keep running engine work it can never
// deliver. Two rules apply:
//
//   - In engine packages (analysis.EnginePaths) every call is flagged:
//     each engine entry point takes its context from the caller, so an
//     engine function that mints a root context is a sweep nothing can
//     cancel or trace.
//   - Elsewhere (cmd/*, internal/server, examples) only functions that
//     take a context.Context are judged: they must thread it (or a
//     child via WithCancel/WithTimeout) through every call they make.
//     Functions without one are the API boundary where a root context
//     is legitimately created (a main, or the registry's deliberate
//     run-context decoupling in its constructor).
package ctxflow

import (
	"go/ast"
	"go/types"

	"servet/internal/analysis"
)

// Analyzer is the ctxflow check.
var Analyzer = &analysis.Analyzer{
	Name: "ctxflow",
	Doc:  "flag context.Background/TODO in engine packages and inside functions that already take a Context",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if path := pass.Pkg.Path(); analysis.IsEnginePath(path) {
		for _, file := range pass.Files {
			reportRootContexts(pass, file, nil, "context.%s in engine package "+path+": take a context.Context from the caller instead of minting a root one")
		}
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var ftyp *ast.FuncType
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				ftyp, body = fn.Type, fn.Body
			case *ast.FuncLit:
				ftyp, body = fn.Type, fn.Body
			default:
				return true
			}
			if body == nil || !takesContext(pass.TypesInfo, ftyp) {
				return true
			}
			checkBody(pass, body)
			return true
		})
	}
	return nil
}

// takesContext reports whether the function type has a
// context.Context parameter.
func takesContext(info *types.Info, ftyp *ast.FuncType) bool {
	if ftyp.Params == nil {
		return false
	}
	for _, field := range ftyp.Params.List {
		if t := info.Types[field.Type].Type; t != nil && analysis.IsNamedType(t, "context", "Context") {
			return true
		}
	}
	return false
}

// checkBody flags Background/TODO calls, skipping nested function
// literals that take their own context (they are their own scope).
func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	reportRootContexts(pass, body, func(lit *ast.FuncLit) bool {
		return takesContext(pass.TypesInfo, lit.Type) // judged on its own by run
	}, "context.%s inside a function that takes a context.Context: thread the parameter (or a WithCancel/WithTimeout child) instead of severing the caller's cancellation chain")
}

// reportRootContexts reports every context.Background/TODO call under
// root with the message format (verb: the function name), not
// descending into function literals skip reports true for.
func reportRootContexts(pass *analysis.Pass, root ast.Node, skip func(*ast.FuncLit) bool, format string) {
	ast.Inspect(root, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && skip != nil && skip(lit) {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		for _, name := range []string{"Background", "TODO"} {
			if analysis.CalleeIsPkgFunc(pass.TypesInfo, call, "context", name) {
				pass.Reportf(call.Pos(), format, name)
			}
		}
		return true
	})
}
