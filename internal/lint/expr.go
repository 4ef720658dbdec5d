package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// Shared expression predicates used by the analyzers.

// metaPath is the package that owns the protection geometry; its named
// constants are what the magic-granularity rule points to.
const metaPath = "unimem/internal/meta"

// simPath is the package that owns the picosecond time base.
const simPath = "unimem/internal/sim"

// isUint64 reports whether the expression's type has underlying uint64 —
// the address domain of this codebase.
func isUint64(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	b, ok := tv.Type.Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint64
}

// isConstant reports whether the expression folds to a constant.
func isConstant(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	return ok && tv.Value != nil
}

// constUint returns the expression's constant value as a uint64.
func constUint(p *Package, e ast.Expr) (uint64, bool) {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v, ok := constant.Uint64Val(constant.ToInt(tv.Value))
	return v, ok
}

// isSimTime reports whether the expression's type is sim.Time.
func isSimTime(p *Package, e ast.Expr) bool {
	tv, ok := p.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return isSimTimeType(tv.Type)
}

func isSimTimeType(t types.Type) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj != nil && obj.Name() == "Time" && obj.Pkg() != nil && obj.Pkg().Path() == simPath
}

// leafNames collects the identifier and selector names appearing in an
// expression, lowercased — the vocabulary the name-based heuristics match
// against.
func leafNames(e ast.Expr) []string {
	var names []string
	ast.Inspect(e, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.Ident:
			names = append(names, strings.ToLower(v.Name))
		}
		return true
	})
	return names
}

// liveNameContains is leafNames matching restricted to identifiers that do
// NOT resolve to named constants. A constant multiple of the geometry
// (i*meta.BlockSize) is aligned stride math, not a runtime size, so
// constants must not trip the size heuristics.
func liveNameContains(p *Package, e ast.Expr, needles ...string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok || found {
			return !found
		}
		if obj := p.Info.Uses[id]; obj != nil {
			if _, isConst := obj.(*types.Const); isConst {
				return true
			}
		}
		if anyNameContains([]string{strings.ToLower(id.Name)}, needles...) {
			found = true
		}
		return true
	})
	return found
}

// anyNameContains reports whether any collected name contains any needle.
func anyNameContains(names []string, needles ...string) bool {
	for _, n := range names {
		for _, needle := range needles {
			if strings.Contains(n, needle) {
				return true
			}
		}
	}
	return false
}

// unparen strips parentheses.
func unparen(e ast.Expr) ast.Expr {
	for {
		pe, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = pe.X
	}
}

// inConstDecl reports whether the ancestor stack passes through a const
// declaration (where spelled-out sizes are definitions, not magic).
func inConstDecl(stack []ast.Node) bool {
	for _, n := range stack {
		if gd, ok := n.(*ast.GenDecl); ok && gd.Tok.String() == "const" {
			return true
		}
	}
	return false
}

// calleeFunc resolves the called function object, when statically known.
func calleeFunc(p *Package, call *ast.CallExpr) *types.Func {
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := p.Info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// isMetaCall reports whether the call targets the meta package (the shared
// geometry helpers that make address arithmetic self-describing).
func isMetaCall(p *Package, call *ast.CallExpr) bool {
	f := calleeFunc(p, call)
	return f != nil && f.Pkg() != nil && f.Pkg().Path() == metaPath
}

// lhsObject resolves the object a plain identifier assignment target names
// (nil for stores through selectors and indexes).
func lhsObject(p *Package, e ast.Expr) types.Object {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	if obj := p.Info.Defs[id]; obj != nil {
		return obj
	}
	return p.Info.Uses[id]
}
