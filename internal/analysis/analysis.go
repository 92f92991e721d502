// Package analysis is the suite's static-analysis framework: a
// stdlib-only reimplementation of the golang.org/x/tools/go/analysis
// vocabulary (Analyzer, Pass, Diagnostic) plus a package loader built
// on `go list -export` and the gc export-data importer, so the
// determinism contract the engine packages live by — no wall clock,
// no stateful randomness, no map-order-dependent output — is
// machine-checked law instead of convention. cmd/servet-vet drives
// the analyzers over the tree; each analyzer lives in its own
// subpackage with analysistest-style fixture coverage.
//
// The framework exists because this module vendors nothing and builds
// offline: the x/tools analysis API is mirrored closely enough that
// the analyzers would port to a real multichecker by swapping
// imports.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static check. The shape mirrors
// x/tools/go/analysis.Analyzer: a name, a doc string whose first line
// is the summary, and a Run function applied once per package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flags
	// ([a-z][a-z0-9]*).
	Name string
	// Doc documents what the analyzer enforces.
	Doc string
	// Run applies the analyzer to one package, reporting findings
	// through pass.Report / pass.Reportf.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package.
type Pass struct {
	// Analyzer is the check being applied.
	Analyzer *Analyzer
	// Fset maps token positions of Files to file/line/column.
	Fset *token.FileSet
	// Files are the package's parsed syntax trees (with comments).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds the type-checker's facts about Files.
	TypesInfo *types.Info
	// Report delivers one finding.
	Report func(Diagnostic)
}

// Reportf reports a finding at pos with a formatted message.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// Diagnostic is one finding: a position and a message, tagged with
// the analyzer that produced it by the runner.
type Diagnostic struct {
	// Pos locates the finding.
	Pos token.Pos
	// Message states the violation and, where useful, the fix.
	Message string
	// Analyzer is filled by Run with the reporting analyzer's name.
	Analyzer string
}

// Finding is a formatted diagnostic: the position resolved against
// the file set.
type Finding struct {
	// Position is the resolved file:line:column.
	Position token.Position
	// Message and Analyzer mirror the diagnostic.
	Message  string
	Analyzer string
}

// String renders the finding the way go vet does:
// file:line:col: message [analyzer].
func (f Finding) String() string {
	return fmt.Sprintf("%s: %s [%s]", f.Position, f.Message, f.Analyzer)
}

// Run applies the analyzers to each package and returns every finding
// sorted by file, line, column, then analyzer name, so output order
// is stable no matter how packages were scheduled.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Finding, error) {
	var out []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			pass.Report = func(d Diagnostic) {
				out = append(out, Finding{
					Position: pkg.Fset.Position(d.Pos),
					Message:  d.Message,
					Analyzer: a.Name,
				})
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.Types.Path(), err)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Position.Filename != b.Position.Filename {
			return a.Position.Filename < b.Position.Filename
		}
		if a.Position.Line != b.Position.Line {
			return a.Position.Line < b.Position.Line
		}
		if a.Position.Column != b.Position.Column {
			return a.Position.Column < b.Position.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out, nil
}

// IsNamedType reports whether t is the named type path.name (after
// unaliasing), e.g. IsNamedType(t, "context", "Context").
func IsNamedType(t types.Type, path, name string) bool {
	n, ok := types.Unalias(t).(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == path
}

// CalleeFunc resolves the called package-level function or method of
// a call expression, or nil (calls through function values, built-ins
// and type conversions resolve to nil).
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
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

// CalleeIsPkgFunc reports whether the call is to the package-level
// function path.name.
func CalleeIsPkgFunc(info *types.Info, call *ast.CallExpr, path, name string) bool {
	fn := CalleeFunc(info, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == path && fn.Name() == name &&
		fn.Type().(*types.Signature).Recv() == nil
}

// SortCallTargets lists the sorting calls the maporder analyzer (and
// the sorted-keys idiom it recognizes) accepts as establishing a
// deterministic order: sort.* and slices.Sort* entry points whose
// first argument is the slice being ordered.
var SortCallTargets = map[string]bool{
	"sort.Strings": true, "sort.Ints": true, "sort.Float64s": true,
	"sort.Slice": true, "sort.SliceStable": true, "sort.Sort": true,
	"sort.Stable": true, "slices.Sort": true, "slices.SortFunc": true,
	"slices.SortStableFunc": true,
}

// IsSortCall reports whether the call is one of SortCallTargets,
// returning its first argument when so.
func IsSortCall(info *types.Info, call *ast.CallExpr) (ast.Expr, bool) {
	fn := CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil {
		return nil, false
	}
	if !SortCallTargets[fn.Pkg().Path()+"."+fn.Name()] {
		return nil, false
	}
	if len(call.Args) == 0 {
		return nil, false
	}
	return call.Args[0], true
}

// EnginePaths are the packages bound to the determinism contract:
// everything a report or TuneResult is computed from. detrand forbids
// wall-clock and stateful-randomness calls here (except at
// //servet:wallclock-annotated provenance-stamping sites).
var EnginePaths = map[string]bool{
	"servet":                   true, // session provenance + facade
	"servet/internal/core":     true,
	"servet/internal/memsys":   true,
	"servet/internal/mpisim":   true,
	"servet/internal/netsim":   true,
	"servet/internal/sim":      true,
	"servet/internal/stats":    true,
	"servet/internal/autotune": true,
	"servet/internal/tune":     true,
	"servet/internal/sched":    true,
	// obs is the tracing layer the engine packages call into; its
	// wall-clock reads (span timestamps) are annotated provenance, and
	// nothing a report is computed from may depend on them.
	"servet/internal/obs": true,
}

// IsEnginePath reports whether the package path is bound to the
// determinism contract.
func IsEnginePath(path string) bool { return EnginePaths[path] }

// WallclockAnnotation is the marker comment that exempts one
// wall-clock call site from detrand: legitimate uses are provenance
// stamping (timestamps and wall durations recorded in reports), never
// values measurements derive from.
const WallclockAnnotation = "//servet:wallclock"

// AnnotatedLines returns the line numbers carrying a
// //servet:wallclock marker in the file (the annotation exempts a
// call on its own line or the line directly below the marker).
func AnnotatedLines(fset *token.FileSet, f *ast.File) map[int]token.Pos {
	lines := make(map[int]token.Pos)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if strings.HasPrefix(c.Text, WallclockAnnotation) {
				lines[fset.Position(c.Pos()).Line] = c.Pos()
			}
		}
	}
	return lines
}
