package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analysis"
)

// SnapFreeze enforces the copy-on-write snapshot discipline of the
// live-update pipeline (internal/core/liveupdate.go): once a *Factor
// has been published into a Patched snapshot (assigned to its Factor
// field), it is shared with concurrent readers through the atomic
// engine swap and must never be written again. Legal mutation happens
// only before publication, on the private clone cowClone returns. The
// analyzer tracks publication per function with a forward may-analysis
// (including simple aliases), and flags any post-publication write:
// mutator method calls (resetBlocks, scatterEdges, injectMin, setEdge,
// reeliminate, factorize, eliminate, and blocks — the factor's store
// that the shared elimination step writes through), Set/Fill on the
// factor's diag/up/down blocks, and direct element stores — plus any
// write reached through a `.Factor` selector off a Patched value, which
// is a published factor by definition.
var SnapFreeze = &analysis.Analyzer{
	Name: "snapfreeze",
	Doc:  "flags writes to a *Factor after it has been published into a Patched snapshot; published factors are frozen, mutate the COW clone before publishing",
	Run:  runSnapFreeze,
}

// snapMutators are the Factor methods that write the factorization.
var snapMutators = map[string]bool{
	"resetBlocks":  true,
	"scatterEdges": true,
	"injectMin":    true,
	"reeliminate":  true,
	"eliminate":    true,
	"factorize":    true,
	"setEdge":      true,
	"blocks":       true,
}

// snapBlockFields are the Factor fields holding mutable block storage.
var snapBlockFields = map[string]bool{
	"diag": true,
	"up":   true,
	"down": true,
}

// snapBlockWriters are the block-level write methods.
var snapBlockWriters = map[string]bool{
	"Set":  true,
	"Fill": true,
}

func runSnapFreeze(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			runSnapFreezeFunc(pass, fd)
		}
	}
	return nil
}

func runSnapFreezeFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	aliases := analysis.AliasClasses(fd.Body, pass.TypesInfo)
	root := func(obj types.Object) types.Object {
		if r, ok := aliases[obj]; ok {
			return r
		}
		return obj
	}
	identObj := func(e ast.Expr) types.Object {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil
		}
		if o := pass.TypesInfo.Defs[id]; o != nil {
			return o
		}
		return pass.TypesInfo.Uses[id]
	}

	// publishGen yields the alias-class roots published at a node:
	// `p.Factor = v` with p a Patched, and Patched{Factor: v} literals.
	publishGen := func(n ast.Node) []types.Object {
		var published []ast.Expr
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
				if !ok || sel.Sel.Name != "Factor" || !isPatched(pass, sel.X) || i >= len(n.Rhs) {
					continue
				}
				published = append(published, n.Rhs[i])
			}
		case *ast.CompositeLit:
			if tv, ok := pass.TypesInfo.Types[n]; !ok || !isPatchedType(tv.Type) {
				return nil
			}
			for _, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Factor" {
					published = append(published, kv.Value)
				}
			}
		}
		var out []types.Object
		for _, e := range published {
			if obj := identObj(e); obj != nil && isFactorObj(obj) {
				out = append(out, root(obj))
			}
		}
		return out
	}

	var may *analysis.MaySet // built lazily: most functions never publish
	published := func(pos token.Pos, e ast.Expr) bool {
		obj := identObj(e)
		if obj == nil || !isFactorObj(obj) {
			return false
		}
		if may == nil {
			may = analysis.NewMaySet(analysis.NewCFG(fd.Body), publishGen)
		}
		return may.Has(pos, root(obj))
	}

	report := func(pos token.Pos, what string) {
		pass.Reportf(pos, "%s after the factor was published into a Patched snapshot; published factors are shared with concurrent readers and frozen — mutate the cowClone before publishing, or annotate with //lint:ignore snapfreeze <why this write is safe>", what)
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch {
			case snapMutators[sel.Sel.Name]:
				if throughPatchedFactor(pass, sel.X) {
					report(n.Pos(), "mutator call "+sel.Sel.Name+" through a Patched snapshot's Factor")
				} else if published(n.Pos(), sel.X) {
					report(n.Pos(), "mutator call "+sel.Sel.Name+" on "+types.ExprString(sel.X))
				}
			case snapBlockWriters[sel.Sel.Name]:
				base, ok := factorBlockBase(sel.X)
				if !ok {
					return true
				}
				if throughPatchedFactor(pass, base) {
					report(n.Pos(), "block write "+sel.Sel.Name+" through a Patched snapshot's Factor")
				} else if published(n.Pos(), base) {
					report(n.Pos(), "block write "+sel.Sel.Name+" on "+types.ExprString(base))
				}
			}
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				idx, ok := ast.Unparen(lhs).(*ast.IndexExpr)
				if !ok {
					continue
				}
				sel, ok := ast.Unparen(idx.X).(*ast.SelectorExpr)
				if !ok || !snapBlockFields[sel.Sel.Name] {
					continue
				}
				if throughPatchedFactor(pass, sel.X) {
					report(lhs.Pos(), "block store through a Patched snapshot's Factor")
				} else if published(lhs.Pos(), sel.X) {
					report(lhs.Pos(), "block store on "+types.ExprString(sel.X))
				}
			}
		}
		return true
	})
}

// factorBlockBase unwraps f.diag[k] / f.up[i] / f.down[i] index
// expressions, returning the factor-valued base expression f.
func factorBlockBase(e ast.Expr) (ast.Expr, bool) {
	idx, ok := ast.Unparen(e).(*ast.IndexExpr)
	if !ok {
		return nil, false
	}
	sel, ok := ast.Unparen(idx.X).(*ast.SelectorExpr)
	if !ok || !snapBlockFields[sel.Sel.Name] {
		return nil, false
	}
	return sel.X, true
}

// throughPatchedFactor reports whether the expression reaches its value
// through `<patched>.Factor` — i.e. it names the published snapshot's
// factor no matter what local flow says.
func throughPatchedFactor(pass *analysis.Pass, e ast.Expr) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			if x.Sel.Name == "Factor" && isPatched(pass, x.X) {
				return true
			}
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.CallExpr:
			e = x.Fun
		default:
			return false
		}
	}
}

// isPatched reports whether the expression's type is (a pointer to) the
// named type Patched.
func isPatched(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[ast.Unparen(e)]
	return ok && isPatchedType(tv.Type)
}

func isPatchedType(t types.Type) bool {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name() == "Patched"
	}
	return false
}

// isFactorObj reports whether obj is a variable of type (pointer to)
// the named type Factor.
func isFactorObj(obj types.Object) bool {
	t := obj.Type()
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name() == "Factor"
	}
	return false
}
