package lint

import (
	"go/ast"
	"go/types"

	"code56/internal/lint/analysis"
)

// CtxFlow enforces context discipline around the parallel stripe engine.
//
// Cancellation in this repository stops at stripe boundaries precisely
// because every bulk loop funnels through parallel.ForEach/ForEachBatch/
// XorMulti with the caller's ctx. A *Context entry point that manufactures
// its own context — or threads the wrong one — silently severs
// cancellation for everything beneath it: a paused or cancelled migration
// would keep encoding stripes. Two rules:
//
//   - library code (anything but package main) must not call context.TODO,
//     and may call context.Background only in the recognized
//     serial-compat-wrapper shape: a function with no context.Context
//     parameter passing Background() directly as a call argument (e.g.
//     OnlineMigrator.Start's `return m.StartContext(context.Background())`).
//     Calling Background inside a function that already has a ctx in
//     scope is reported, as is storing a manufactured context in a
//     variable or field.
//
//   - every call to parallel.ForEach, ForEachBatch or XorMulti made inside
//     a function with a context.Context parameter (its own or a captured
//     one) must thread that parameter — directly, or via a value derived
//     from it such as `cctx, cancel := context.WithCancel(ctx)`. Passing a
//     fresh Background()/TODO() or an unrelated context is reported.
var CtxFlow = &analysis.Analyzer{
	Name: "ctxflow",
	Doc: "require context-aware entry points to thread their ctx into the " +
		"parallel engine, and forbid manufactured contexts in library code",
	Run: runCtxFlow,
}

// parallelCtxFuncs are the parallel-engine entry points whose first
// parameter is a context.
var parallelCtxFuncs = map[string]bool{
	"ForEach":      true,
	"ForEachBatch": true,
	"XorMulti":     true,
}

func runCtxFlow(pass *analysis.Pass) error {
	isMain := pass.Pkg.Name() == "main"
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkCtxFunc(pass, fd.Type, fd.Body, nil, isMain)
			}
		}
	}
	return nil
}

// funcCtx tracks, for one function (or literal), the context.Context
// values in scope: its parameters, those captured from enclosing
// functions, and locals derived from either.
type funcCtx struct {
	pass    *analysis.Pass
	params  map[types.Object]bool
	derived map[types.Object]bool
}

func newFuncCtx(pass *analysis.Pass, ft *ast.FuncType, parent *funcCtx) *funcCtx {
	fc := &funcCtx{pass: pass, params: map[types.Object]bool{}, derived: map[types.Object]bool{}}
	if parent != nil {
		for o := range parent.params {
			fc.params[o] = true
		}
		for o := range parent.derived {
			fc.derived[o] = true
		}
	}
	if ft.Params != nil {
		for _, field := range ft.Params.List {
			for _, name := range field.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil && isContextType(obj.Type()) {
					fc.params[obj] = true
				}
			}
		}
	}
	return fc
}

// hasCtx reports whether any context parameter is in scope.
func (fc *funcCtx) hasCtx() bool { return len(fc.params) > 0 }

// connected reports whether e denotes a context parameter in scope, a
// local derived from one, or an inline derivation (a call that receives a
// connected context among its arguments, e.g. context.WithTimeout(ctx, d)).
func (fc *funcCtx) connected(e ast.Expr) bool {
	e = ast.Unparen(e)
	if obj := identObj(fc.pass.TypesInfo, e); obj != nil {
		return fc.params[obj] || fc.derived[obj]
	}
	if call, ok := e.(*ast.CallExpr); ok {
		for _, arg := range call.Args {
			if fc.connected(arg) {
				return true
			}
		}
	}
	return false
}

// checkCtxFunc analyzes one function body with its context scope, then
// recurses into nested literals with the scope chained.
func checkCtxFunc(pass *analysis.Pass, ft *ast.FuncType, body *ast.BlockStmt, parent *funcCtx, isMain bool) {
	fc := newFuncCtx(pass, ft, parent)
	sanctioned := map[*ast.CallExpr]bool{} // Background/TODO passed directly as a call argument
	reported := map[*ast.CallExpr]bool{}   // already flagged by the parallel-threading rule

	ast.Inspect(body, func(n ast.Node) bool {
		switch node := n.(type) {
		case *ast.FuncLit:
			checkCtxFunc(pass, node.Type, node.Body, fc, isMain)
			return false
		case *ast.AssignStmt:
			// Track locals derived from a connected context:
			// cctx, cancel := context.WithTimeout(ctx, d).
			for i, rhs := range node.Rhs {
				if !fc.connected(rhs) {
					continue
				}
				lhs := node.Lhs
				if len(node.Lhs) == len(node.Rhs) {
					lhs = node.Lhs[i : i+1]
				}
				for _, l := range lhs {
					if obj := identObj(pass.TypesInfo, l); obj != nil && isContextType(obj.Type()) {
						fc.derived[obj] = true
					}
				}
			}
		case *ast.CallExpr:
			for _, arg := range node.Args {
				if inner, ok := ast.Unparen(arg).(*ast.CallExpr); ok && isManufactured(pass, inner) {
					sanctioned[inner] = true
				}
			}
			checkParallelCall(pass, node, fc, reported)
		}
		return true
	})

	// Second pass: judge every Background/TODO call against the scope and
	// the sanctioned set built above.
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || !isManufactured(pass, call) || reported[call] {
			return true
		}
		switch {
		case isMain:
			// Binaries own their root context.
		case isPkgFunc(pass.TypesInfo, call, "context", "TODO"):
			pass.Reportf(call.Pos(), "library code must not call context.TODO; accept a ctx parameter or use the serial-wrapper shape with context.Background")
		case fc.hasCtx():
			pass.Reportf(call.Pos(), "context.Background() inside a function that already has a ctx in scope; thread the ctx instead of manufacturing a new root")
		case !sanctioned[call]:
			pass.Reportf(call.Pos(), "context.Background() stored instead of passed; library code may only use Background directly as an argument to a context-aware call (serial-wrapper shape)")
		}
		return true
	})
}

// isManufactured reports whether call is context.Background() or
// context.TODO().
func isManufactured(pass *analysis.Pass, call *ast.CallExpr) bool {
	return isPkgFunc(pass.TypesInfo, call, "context", "Background") ||
		isPkgFunc(pass.TypesInfo, call, "context", "TODO")
}

// checkParallelCall verifies that parallel engine calls thread a connected
// context as their first argument.
func checkParallelCall(pass *analysis.Pass, call *ast.CallExpr, fc *funcCtx, reported map[*ast.CallExpr]bool) {
	obj, ok := calleeObj(pass.TypesInfo, call).(*types.Func)
	if !ok || obj.Pkg() == nil || obj.Pkg().Path() != parallelPath || !parallelCtxFuncs[obj.Name()] {
		return
	}
	if len(call.Args) == 0 {
		return
	}
	first := ast.Unparen(call.Args[0])
	if inner, ok := first.(*ast.CallExpr); ok && isManufactured(pass, inner) {
		if fc.hasCtx() || pass.Pkg.Name() != "main" {
			pass.Reportf(first.Pos(), "parallel.%s called with a manufactured context; thread the caller's ctx so cancellation reaches the stripe loop", obj.Name())
			reported[inner] = true
		}
		return
	}
	if fc.hasCtx() && !fc.connected(first) {
		pass.Reportf(call.Args[0].Pos(), "parallel.%s does not thread this function's ctx; cancellation will not reach the stripe loop", obj.Name())
	}
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context"
}
