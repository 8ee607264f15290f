package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// SeamAnalyzer guards the two seams the paper's physics sits behind. Each
// row of seamRules names the concrete types on one side of a seam and the
// packages that must program against the seam's interface instead:
//
//   - the fan and heat-sink law g(ω) = p·ln(qω)+r (fan.Fan,
//     fan.HeatSinkModel) stays behind coolant.Actuator everywhere outside
//     internal/fan and internal/coolant, so a liquid loop, a PUE wrapper,
//     or a multi-chip cold plate slots in without touching the thermal
//     stack. The coolant package's FanSpec/HeatSinkSpec aliases are its own
//     type names and stay legal: carrying air parameters is data;
//   - the RC model (*thermal.Model) stays behind backend.Evaluator inside
//     internal/core, internal/controller and internal/experiments, so the
//     optimizer, the DTM controllers and the experiment harness never
//     bypass the shared evaluation cache, the ROM fast path, or the
//     authoritative-finish certification. Other thermal types (Result,
//     Config, Zoning) are data and cross freely.
//
// Within a rule's packages the analyzer reports any identifier that
// resolves to a guarded type (declarations, conversions, type assertions,
// composite literals), and any method call or field selection whose
// receiver is (a pointer to) one — which catches values smuggled in
// through aliases, backend.ModelOf, or interface assertions, where no
// guarded identifier appears.
//
// Intentional escapes carry a //lint:ignore seam <reason> directive.
var SeamAnalyzer = &Analyzer{
	Name: "seam",
	Doc:  "flags concrete fan and thermal-model references that bypass the coolant and backend seams",
	Run:  runSeam,
}

// seamRule is one guarded seam. A rule with scoped packages applies only
// inside them; otherwise it applies everywhere except the exempt ones.
// Packages are matched by import-path suffix.
type seamRule struct {
	pkgSuffix string   // package declaring the guarded types
	typeNames []string // the guarded types
	exempt    []string // the concrete side of the seam
	scoped    []string // the consumer side, when the rule is opt-in
	via       string   // the interface consumers program against
}

var seamRules = []seamRule{
	{
		pkgSuffix: "internal/fan",
		typeNames: []string{"Fan", "HeatSinkModel"},
		exempt:    []string{"internal/fan", "internal/coolant"},
		via:       "coolant.Actuator",
	},
	{
		pkgSuffix: "internal/thermal",
		typeNames: []string{"Model"},
		scoped:    []string{"internal/core", "internal/controller", "internal/experiments"},
		via:       "backend.Evaluator",
	},
}

// appliesTo reports whether the rule guards the package at path.
func (r *seamRule) appliesTo(path string) bool {
	if len(r.scoped) > 0 {
		return hasAnySuffix(path, r.scoped)
	}
	return !hasAnySuffix(path, r.exempt)
}

// guards reports whether obj is one of the rule's guarded type names.
func (r *seamRule) guards(obj types.Object) bool {
	tn, ok := obj.(*types.TypeName)
	if !ok || tn.Pkg() == nil || !strings.HasSuffix(tn.Pkg().Path(), r.pkgSuffix) {
		return false
	}
	for _, name := range r.typeNames {
		if tn.Name() == name {
			return true
		}
	}
	return false
}

func runSeam(pass *Pass) {
	var rules []*seamRule
	for i := range seamRules {
		if seamRules[i].appliesTo(pass.Pkg.Path) {
			rules = append(rules, &seamRules[i])
		}
	}
	if len(rules) == 0 {
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				obj := info.Uses[n]
				if obj == nil {
					obj = info.Defs[n]
				}
				for _, r := range rules {
					if r.guards(obj) {
						pass.Reportf(n.Pos(), "direct reference to %s.%s; program against %s (or //lint:ignore seam with a reason)", obj.Pkg().Name(), obj.Name(), r.via)
					}
				}
			case *ast.SelectorExpr:
				// Only genuine member selections are in Selections, so
				// qualified type names (fan.Fan) stay with the identifier
				// case above.
				sel, ok := info.Selections[n]
				if !ok {
					return true
				}
				named := namedOf(sel.Recv())
				if named == nil {
					return true
				}
				obj := named.Obj()
				for _, r := range rules {
					if r.guards(obj) {
						pass.Reportf(n.Sel.Pos(), "selection %s on a %s.%s value; route through %s (or //lint:ignore seam with a reason)", n.Sel.Name, obj.Pkg().Name(), obj.Name(), r.via)
					}
				}
			}
			return true
		})
	}
}

func hasAnySuffix(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if strings.HasSuffix(path, s) {
			return true
		}
	}
	return false
}

// namedOf unwraps pointers and aliases down to a named type, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch u := t.(type) {
		case *types.Pointer:
			t = u.Elem()
		case *types.Alias:
			t = types.Unalias(t)
		case *types.Named:
			return u
		default:
			return nil
		}
	}
}
