package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// NonFiniteAnalyzer guards the numeric kernel against silent NaN/Inf.
//
// In internal/solver, internal/thermal, and internal/core a NaN produced
// by a division or an overflowed math.Exp propagates through the
// optimizer as an ordinary float64 and surfaces as a nonsense operating
// point instead of an error. The analyzer flags exported functions in
// those packages that return a float64 computed in a body containing
// float division or a math.Exp/math.Log call, unless the body also
// consults math.IsNaN or math.IsInf (or delegates to a helper that
// does — annotate those with //lint:ignore nonfinite <reason>).
var NonFiniteAnalyzer = &Analyzer{
	Name: "nonfinite",
	Doc:  "flags exported float64-returning numeric-kernel functions lacking IsNaN/IsInf guards",
	Run:  runNonFinite,
}

var nonFinitePackages = []string{"internal/solver", "internal/thermal", "internal/core"}

func runNonFinite(pass *Pass) {
	if !hasAnySuffix(pass.Pkg.Path, nonFinitePackages) {
		return
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || fd.Body == nil {
				continue
			}
			if !returnsFloat(pass, fd) {
				continue
			}
			risky, guarded := scanBody(pass, fd.Body)
			if risky != token.NoPos && !guarded {
				// Report at the declaration (the finding is about the
				// function's contract), naming the first risky line.
				pass.Reportf(fd.Name.Pos(), "exported %s returns float64 from division or math.Exp/math.Log (line %d) without a math.IsNaN/math.IsInf guard", fd.Name.Name, pass.Pkg.Fset.Position(risky).Line)
			}
		}
	}
}

// returnsFloat reports whether any declared result is float64.
func returnsFloat(pass *Pass, fd *ast.FuncDecl) bool {
	if fd.Type.Results == nil {
		return false
	}
	for _, field := range fd.Type.Results.List {
		t := pass.TypeOf(field.Type)
		if t == nil {
			continue
		}
		if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsFloat != 0 {
			return true
		}
	}
	return false
}

// scanBody returns the position of the first non-finite risk (float
// division or math.Exp/math.Log call) and whether the body anywhere
// consults math.IsNaN/math.IsInf.
func scanBody(pass *Pass, body *ast.BlockStmt) (risky token.Pos, guarded bool) {
	risky = token.NoPos
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if n.Op == token.QUO && pass.IsFloat(n.X) && risky == token.NoPos {
				risky = n.OpPos
			}
		case *ast.CallExpr:
			fn := pass.Callee(n)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "math" {
				return true
			}
			switch fn.Name() {
			case "Exp", "Exp2", "Expm1", "Log", "Log2", "Log10", "Log1p":
				if risky == token.NoPos {
					risky = n.Pos()
				}
			case "IsNaN", "IsInf":
				guarded = true
			}
		}
		return true
	})
	return risky, guarded
}
