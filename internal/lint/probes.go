package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strings"
)

// ProbeDiscipline keeps the observability layer honest: every overfetch
// and tree-walk accounting site in internal/core must emit the matching
// probe event, the Table 2 switch counts (SwitchStats fields other than
// Correct, a non-event) are written only by countSwitch, which also emits
// the switch event, and all memory traffic must go through the
// memRead/memWrite seam in observe.go. Without this rule the cost model
// and the event stream can silently drift apart — a new charge site that
// forgets its probe produces correct totals and an incomplete trace, which
// no dynamic test notices. Switch-count writes are found by type, so a
// *SwitchStats local is caught like the e.Stats.Switches spelling.
type ProbeDiscipline struct{}

// Name implements Analyzer.
func (*ProbeDiscipline) Name() string { return "probe-discipline" }

// Doc implements Analyzer.
func (*ProbeDiscipline) Doc() string {
	return "internal/core cost-accounting sites must emit the matching probe event (observe.go seam)"
}

// walkFields are the Stats walk counters that must be accompanied by a
// probeWalk call in the same function.
var walkFields = map[string]bool{
	"WalkLevels": true, "PrunedWalks": true, "SubtreeHits": true,
}

// Check implements Analyzer.
func (pd *ProbeDiscipline) Check(p *Package) []Finding {
	if !strings.HasSuffix(p.Path, "/internal/core") {
		return nil
	}
	var out []Finding
	for _, file := range p.Files {
		exemptSeam := filepath.Base(p.Fset.Position(file.Pos()).Filename) == "observe.go"
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			out = append(out, checkProbeScope(p, fd.Body, exemptSeam, fd.Name.Name == "countSwitch")...)
		}
	}
	return out
}

// accounting is one cost-accounting increment found in a function scope.
type accounting struct {
	pos   token.Pos
	field string
}

// probeCalls records which probe emissions a function scope performs.
type probeCalls struct {
	hasOverfetch bool
	hasWalk      bool
}

// checkProbeScope analyzes one function scope (FuncDecl or FuncLit body);
// nested literals recurse as their own scopes, matching how the engine
// structures its per-unit callbacks. switchWriter marks countSwitch, the
// one function allowed to write the switch counts.
func checkProbeScope(p *Package, body *ast.BlockStmt, exemptSeam, switchWriter bool) []Finding {
	var accs []accounting
	var calls probeCalls
	var out []Finding
	countWrite := func(e ast.Expr) {
		if field, ok := switchCountField(p, e); ok && !switchWriter {
			out = append(out, Finding{
				Pos:  p.Fset.Position(e.Pos()),
				Rule: "probe-discipline",
				Msg:  "Switches." + field + " is written outside countSwitch; charge switches with countSwitch, which also emits the probe event",
			})
		}
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.FuncLit:
			out = append(out, checkProbeScope(p, v.Body, exemptSeam, switchWriter)...)
			return false
		case *ast.UnaryExpr:
			if v.Op == token.AND {
				countWrite(v.X)
			}
		case *ast.IncDecStmt:
			countWrite(v.X)
			if v.Tok == token.INC {
				if acc, ok := accountingSite(v.X); ok {
					accs = append(accs, acc)
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range v.Lhs {
				countWrite(lhs)
			}
			if v.Tok == token.ADD_ASSIGN && len(v.Lhs) == 1 {
				if acc, ok := accountingSite(v.Lhs[0]); ok {
					accs = append(accs, acc)
				}
			}
		case *ast.CallExpr:
			recordProbeCall(v, &calls)
			if !exemptSeam {
				if name, ok := rawMemoryCall(p, v); ok {
					out = append(out, Finding{
						Pos:  p.Fset.Position(v.Pos()),
						Rule: "probe-discipline",
						Msg:  "(*mem.Memory)." + name + " bypasses the probe seam; route traffic through memRead/memWrite (observe.go)",
					})
				}
			}
		}
		return true
	})

	for _, acc := range accs {
		switch {
		case acc.field == "OverfetchBeats":
			if !calls.hasOverfetch {
				out = append(out, Finding{
					Pos:  p.Fset.Position(acc.pos),
					Rule: "probe-discipline",
					Msg:  "OverfetchBeats is charged without probeOverfetch in the same function",
				})
			}
		case walkFields[acc.field]:
			if !calls.hasWalk {
				out = append(out, Finding{
					Pos:  p.Fset.Position(acc.pos),
					Rule: "probe-discipline",
					Msg:  acc.field + " is charged without probeWalk in the same function",
				})
			}
		}
	}
	return out
}

// accountingSite classifies an increment target as a tracked cost counter.
func accountingSite(e ast.Expr) (accounting, bool) {
	sel, ok := unparen(e).(*ast.SelectorExpr)
	if !ok {
		return accounting{}, false
	}
	field := sel.Sel.Name
	if field == "OverfetchBeats" || walkFields[field] {
		return accounting{pos: e.Pos(), field: field}, true
	}
	return accounting{}, false
}

// switchCountField reports whether e selects a switch-class count: a field
// other than Correct of core's SwitchStats, reached through a value or a
// pointer (the shape of st := &e.Stats.Switches; st.UpWAR++).
func switchCountField(p *Package, e ast.Expr) (string, bool) {
	sel, ok := unparen(e).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name == "Correct" {
		return "", false
	}
	tv, ok := p.Info.Types[unparen(sel.X)]
	if !ok || tv.Type == nil {
		return "", false
	}
	t := tv.Type
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Name() != "SwitchStats" {
		return "", false
	}
	return sel.Sel.Name, true
}

// recordProbeCall notes probeOverfetch/probeWalk emissions.
func recordProbeCall(call *ast.CallExpr, calls *probeCalls) {
	name := ""
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	}
	switch name {
	case "probeOverfetch":
		calls.hasOverfetch = true
	case "probeWalk":
		calls.hasWalk = true
	}
}

// rawMemoryCall detects direct (*mem.Memory).Read / .Write calls — memory
// traffic that would be invisible to the probe layer.
func rawMemoryCall(p *Package, call *ast.CallExpr) (string, bool) {
	fn := calleeFunc(p, call)
	if fn == nil || fn.Pkg() == nil || !strings.HasSuffix(fn.Pkg().Path(), "/internal/mem") {
		return "", false
	}
	if fn.Name() != "Read" && fn.Name() != "Write" {
		return "", false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	rt := sig.Recv().Type()
	if ptr, ok := rt.(*types.Pointer); ok {
		rt = ptr.Elem()
	}
	named, ok := rt.(*types.Named)
	if !ok || named.Obj().Name() != "Memory" {
		return "", false
	}
	return fn.Name(), true
}
