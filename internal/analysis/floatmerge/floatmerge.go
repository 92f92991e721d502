// Package floatmerge flags floating-point accumulation into captured
// variables inside concurrently executed closures: `go func` literals
// and function literals handed to servet/internal/sched entry points
// such as sched.Sweep.
// Two workers adding into one float64 is a data race, and even under
// a mutex the sum depends on completion order because float addition
// is not associative — the result differs run to run and across
// parallelism levels.
//
// The suite's discipline is the sweep idiom of sched.Sweep: workers
// write measurements into disjoint slots of a shared slice, and a
// single sequential merge walks the slots in index order doing every
// order-sensitive reduction there. floatmerge steers authors back to
// it whenever a closure reaches out for a shared float.
package floatmerge

import (
	"go/ast"
	"go/types"

	"servet/internal/analysis"
)

// Analyzer is the floatmerge check.
var Analyzer = &analysis.Analyzer{
	Name: "floatmerge",
	Doc:  "flag float accumulation into captured variables inside concurrent closures",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.GoStmt:
				if lit, ok := ast.Unparen(st.Call.Fun).(*ast.FuncLit); ok {
					checkClosure(pass, lit, "go statement")
				}
			case *ast.CallExpr:
				checkSchedCall(pass, st)
			}
			return true
		})
	}
	return nil
}

// checkSchedCall inspects function literals handed directly to
// servet/internal/sched entry points, which run them concurrently
// (sched.Sweep's scratch builders and measurements).
func checkSchedCall(pass *analysis.Pass, call *ast.CallExpr) {
	fn := analysis.CalleeFunc(pass.TypesInfo, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "servet/internal/sched" {
		return
	}
	for _, arg := range call.Args {
		if fl, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
			checkClosure(pass, fl, "sched-scheduled closure")
		}
	}
}

// checkClosure flags float accumulation into variables captured from
// outside the closure.
func checkClosure(pass *analysis.Pass, lit *ast.FuncLit, what string) {
	info := pass.TypesInfo
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		st, ok := n.(*ast.AssignStmt)
		if !ok || len(st.Lhs) != 1 {
			return true
		}
		lhs := st.Lhs[0]
		t := info.Types[lhs].Type
		if t == nil || !isFloat(t) {
			return true
		}
		accum := st.Tok.String() == "+=" || st.Tok.String() == "-=" || st.Tok.String() == "*="
		if !accum && st.Tok.String() == "=" && len(st.Rhs) == 1 {
			if bin, ok := ast.Unparen(st.Rhs[0]).(*ast.BinaryExpr); ok {
				if a, ok1 := ast.Unparen(bin.X).(*ast.Ident); ok1 {
					if b, ok2 := ast.Unparen(lhs).(*ast.Ident); ok2 && a.Name == b.Name {
						accum = true
					}
				}
			}
		}
		if !accum {
			return true
		}
		obj := rootObject(info, lhs)
		if obj == nil {
			return true
		}
		// Captured: declared outside the literal's extent.
		if obj.Pos() < lit.Pos() || obj.Pos() > lit.End() {
			pass.Reportf(st.Pos(), "float accumulation into captured %q inside a %s: the sum depends on completion order (and races); write into a disjoint slot per task and merge in index order (the sweep idiom)", obj.Name(), what)
		}
		return true
	})
}

// rootObject resolves the variable at the root of an assignable
// expression (x, x.f, x[i] all resolve to x).
func rootObject(info *types.Info, e ast.Expr) types.Object {
	for {
		switch v := ast.Unparen(e).(type) {
		case *ast.Ident:
			return info.Uses[v]
		case *ast.SelectorExpr:
			e = v.X
		case *ast.IndexExpr:
			e = v.X
		case *ast.StarExpr:
			e = v.X
		default:
			return nil
		}
	}
}

func isFloat(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}
