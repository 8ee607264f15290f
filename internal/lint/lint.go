// Package lint is a project-specific static-analysis framework built only
// on the standard library (go/ast, go/parser, go/types, go/token,
// go/importer). It exists because this reproduction's correctness rests on
// invariants the Go compiler cannot check: all physics is carried in SI
// units, float comparisons must go through the internal/units tolerances,
// solver errors must never be silently dropped, consumers must stay behind
// the coolant and backend seams, hot paths annotated //oftec:hotpath must
// not allocate, and lock acquisition must stay cycle-free and balanced on
// every control-flow path. Copying a mutex-guarded struct is go vet's
// copylocks check, not this package's.
//
// The framework deliberately mirrors the shape of golang.org/x/tools'
// analysis API (Analyzer, Pass, Diagnostic) without importing it, so the
// module keeps an empty dependency graph. Beyond the per-package passes it
// provides two shared dataflow facilities: a module-wide static call graph
// (callgraph.go) and a lightweight intraprocedural CFG (cfg.go), consumed
// by module-level analyzers (Analyzer.RunModule) such as hotalloc,
// lockorder, and goroleak. cmd/oftecvet is the driver.
//
// Findings can be suppressed with a directive comment on the same line as
// the offending code or on the line immediately above it:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// A directive placed above (or trailing the first line of) a statement
// that spans multiple lines suppresses matching findings over the full
// statement extent, not just the first line. The reason is mandatory; a
// bare directive is itself reported.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is a single finding, printed as "file:line:col: [name] msg".
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the canonical driver format.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Analyzer is one named analysis pass. Exactly one of Run (per-package)
// and RunModule (once over the whole package set, with access to the call
// graph and CFGs) must be set.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	Name string
	// Doc is a one-line description of the invariant the analyzer guards.
	Doc string
	// Run inspects one type-checked package and reports findings via pass.
	Run func(pass *Pass)
	// RunModule inspects the whole loaded package set at once; analyzers
	// that reason across packages (call-graph propagation, cross-package
	// lock order) use this form.
	RunModule func(pass *ModulePass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of an expression, or nil if unknown.
func (p *Pass) TypeOf(e ast.Expr) types.Type {
	return p.Pkg.Info.TypeOf(e)
}

// IsFloat reports whether the expression has floating-point type
// (after unwrapping named types).
func (p *Pass) IsFloat(e ast.Expr) bool {
	t := p.TypeOf(e)
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// Callee resolves a call expression to the function or method object it
// invokes, or nil for indirect calls and conversions.
func (p *Pass) Callee(call *ast.CallExpr) *types.Func {
	return staticCallee(p.Pkg.Info, call)
}

// ModulePass carries the whole package set through the module-level
// analyzers, with lazily built facilities they share.
type ModulePass struct {
	Analyzer *Analyzer
	Pkgs     []*Package

	fset  *token.FileSet
	graph *CallGraph
	cfgs  map[*ast.FuncDecl]*CFG
	diags []Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *ModulePass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Graph returns the module call graph, building it on first use.
func (p *ModulePass) Graph() *CallGraph {
	if p.graph == nil {
		p.graph = BuildCallGraph(p.Pkgs)
	}
	return p.graph
}

// CFGOf returns the control-flow graph of a declaration's body, memoized
// across the module-level analyzers of one run.
func (p *ModulePass) CFGOf(fd *ast.FuncDecl) *CFG {
	if g, ok := p.cfgs[fd]; ok {
		return g
	}
	g := BuildCFG(fd.Body)
	p.cfgs[fd] = g
	return g
}

// ignoreDirective is one parsed //lint:ignore comment.
type ignoreDirective struct {
	pos       token.Position
	analyzers map[string]bool // analyzer names, or {"all": true}
	hasReason bool
}

const ignorePrefix = "//lint:ignore"

// parseIgnores extracts every //lint:ignore directive from a file.
func parseIgnores(fset *token.FileSet, f *ast.File) []ignoreDirective {
	var out []ignoreDirective
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, ignorePrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(c.Text, ignorePrefix))
			fields := strings.Fields(rest)
			d := ignoreDirective{pos: fset.Position(c.Pos()), analyzers: map[string]bool{}}
			if len(fields) > 0 {
				for _, name := range strings.Split(fields[0], ",") {
					if name != "" {
						d.analyzers[name] = true
					}
				}
				d.hasReason = len(fields) > 1
			}
			out = append(out, d)
		}
	}
	return out
}

// stmtExtents maps, for one file, the starting line of every suppressible
// statement-like node to the last line it spans. A //lint:ignore directive
// associated with a multi-line statement (standalone above it, or trailing
// its first line) suppresses findings over the whole extent — a finding
// reported at a wrapped argument's line is still the same statement.
// Block-bearing control statements (if/for/switch/select) contribute only
// their header line, so a directive above an if cannot blanket its body.
func stmtExtents(fset *token.FileSet, f *ast.File) map[int]int {
	extents := map[int]int{}
	record := func(n ast.Node) {
		start := fset.Position(n.Pos()).Line
		end := fset.Position(n.End()).Line
		if end > extents[start] {
			extents[start] = end
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt, *ast.ExprStmt, *ast.ReturnStmt, *ast.GoStmt,
			*ast.DeferStmt, *ast.DeclStmt, *ast.IncDecStmt, *ast.SendStmt,
			*ast.ValueSpec, *ast.Field:
			record(n)
		case *ast.GenDecl:
			record(n)
		}
		return true
	})
	return extents
}

// ignoreRange is one directive's resolved suppression interval.
type ignoreRange struct {
	file      string
	from, to  int
	analyzers map[string]bool
}

// Run executes every analyzer over every package, applies the ignore
// directives, and returns the surviving diagnostics sorted by position.
// Per-package analyzers run package by package; module-level analyzers
// then run once over the whole set, sharing one lazily built call graph
// and CFG memo.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg}
			a.Run(pass)
			diags = append(diags, pass.diags...)
		}
	}
	if len(pkgs) > 0 {
		mp := &ModulePass{Pkgs: pkgs, fset: pkgs[0].Fset, cfgs: map[*ast.FuncDecl]*CFG{}}
		for _, a := range analyzers {
			if a.RunModule != nil {
				mp.Analyzer = a
				a.RunModule(mp)
			}
		}
		diags = append(diags, mp.diags...)
	}

	// Collect directives and resolve each to its suppression interval.
	var ranges []ignoreRange
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			dirs := parseIgnores(pkg.Fset, f)
			if len(dirs) == 0 {
				continue
			}
			extents := stmtExtents(pkg.Fset, f)
			for _, d := range dirs {
				if !d.hasReason || len(d.analyzers) == 0 {
					diags = append(diags, Diagnostic{
						Pos:      d.pos,
						Analyzer: "lint",
						Message:  "malformed //lint:ignore directive: want //lint:ignore <analyzer> <reason>",
					})
					continue
				}
				line := d.pos.Line
				to := line + 1
				// Trailing a multi-line statement's first line, or
				// standalone above one: cover the full extent.
				if end, ok := extents[line]; ok && end > to {
					to = end
				}
				if end, ok := extents[line+1]; ok && end > to {
					to = end
				}
				ranges = append(ranges, ignoreRange{
					file:      d.pos.Filename,
					from:      line,
					to:        to,
					analyzers: d.analyzers,
				})
			}
		}
	}

	suppressed := func(d Diagnostic) bool {
		for _, r := range ranges {
			if d.Pos.Filename != r.file || d.Pos.Line < r.from || d.Pos.Line > r.to {
				continue
			}
			if r.analyzers[d.Analyzer] || r.analyzers["all"] {
				return true
			}
		}
		return false
	}

	kept := diags[:0]
	for _, d := range diags {
		if !suppressed(d) {
			kept = append(kept, d)
		}
	}
	sort.Slice(kept, func(i, j int) bool {
		a, b := kept[i], kept[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		if a.Analyzer != b.Analyzer {
			return a.Analyzer < b.Analyzer
		}
		return a.Message < b.Message
	})
	// Dedupe identical findings (same position, analyzer, and message): a
	// module analyzer revisiting a shared declaration must not
	// double-report.
	out := kept[:0]
	for i, d := range kept {
		if i > 0 && d == kept[i-1] {
			continue
		}
		out = append(out, d)
	}
	return out
}

// All returns the full analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		FloatCmpAnalyzer,
		ErrDropAnalyzer,
		UnitSuffixAnalyzer,
		NonFiniteAnalyzer,
		CtxLeakAnalyzer,
		SeamAnalyzer,
		HotAllocAnalyzer,
		LockOrderAnalyzer,
		GoroLeakAnalyzer,
	}
}
