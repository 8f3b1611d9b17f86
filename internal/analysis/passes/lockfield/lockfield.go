// Package lockfield machine-checks the "guarded by" doc comments on
// struct fields. The service layer documents which mutex protects each
// piece of shared state:
//
//	type Manager struct {
//		mu sync.Mutex
//		// guarded by mu
//		jobs map[string]*job
//	}
//
// Once a field carries that annotation, every access outside a function
// that (somewhere in its body) locks the named mutex on the same receiver
// expression is a diagnostic. The check is deliberately flow-insensitive —
// it asks "does this function take the lock at all", not "is the lock held
// at this statement" — which is cheap, has no false negatives for the
// straight-line service code, and pushes the remaining judgment calls into
// three explicit, reviewable escapes:
//
//   - functions whose name ends in "Locked" assert that their callers hold
//     the lock (the package's existing convention);
//   - accesses to a value the function itself just built from a composite
//     literal are exempt (constructors own their value exclusively);
//   - anything else is waived in place with //eblow:nondet-ok <reason>.
//
// A second annotation, "// immutable after construction", marks fields
// that need no lock because they are never written after their
// constructor returns; for those only writes outside a constructing
// function are flagged. A function literal inherits the locks of the
// function it is written in — a deferred or immediately-invoked closure
// in a locked region runs while the lock is held — EXCEPT when it is
// launched with `go`: a goroutine outlives the critical section, so it
// starts from an empty lock set and must lock for itself.
package lockfield

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"

	"eblow/internal/analysis"
)

// Analyzer enforces `// guarded by <mu>` and `// immutable after
// construction` field annotations.
var Analyzer = &analysis.Analyzer{
	Name:     "lockfield",
	Contract: "concurrency",
	Doc: "flag accesses to a field annotated `// guarded by <mu>` from " +
		"functions that never lock <mu>, and writes to `// immutable after " +
		"construction` fields outside constructors",
	Run: run,
}

var (
	guardedRe   = regexp.MustCompile(`guarded by ([A-Za-z_][A-Za-z0-9_.]*)`)
	immutableRe = regexp.MustCompile(`immutable after construction`)
)

// A guard is one annotated field.
type guard struct {
	structName string
	field      string
	mu         string // empty for immutable-after-construction fields
}

func run(pass *analysis.Pass) error {
	guards := collectGuards(pass)
	if len(guards) == 0 {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if strings.HasSuffix(fd.Name.Name, "Locked") {
				// The suffix is the package's documented assertion that
				// every caller already holds the lock.
				continue
			}
			checkScope(pass, guards, fd.Body, nil)
		}
	}
	return nil
}

// collectGuards parses the field annotations of every struct type in the
// package and validates that a guarded-by annotation names a sibling
// field.
func collectGuards(pass *analysis.Pass) map[*types.Var]guard {
	guards := make(map[*types.Var]guard)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			fieldNames := make(map[string]bool)
			for _, fld := range st.Fields.List {
				for _, name := range fld.Names {
					fieldNames[name.Name] = true
				}
			}
			for _, fld := range st.Fields.List {
				text := commentText(fld.Doc) + "\n" + commentText(fld.Comment)
				mu := ""
				if m := guardedRe.FindStringSubmatch(text); m != nil {
					// "guarded by mu" and "guarded by m.mu" both name the
					// mutex field mu.
					mu = m[1]
					if i := strings.LastIndexByte(mu, '.'); i >= 0 {
						mu = mu[i+1:]
					}
				}
				immutable := immutableRe.MatchString(text)
				if mu == "" && !immutable {
					continue
				}
				if mu != "" && !fieldNames[mu] {
					pass.Reportf(fld.Pos(),
						"'guarded by %s' names no mutex field of %s; fix the annotation so it can be enforced",
						mu, ts.Name.Name)
					continue
				}
				for _, name := range fld.Names {
					obj, ok := pass.TypesInfo.Defs[name].(*types.Var)
					if !ok {
						continue
					}
					guards[obj] = guard{structName: ts.Name.Name, field: name.Name, mu: mu}
				}
			}
			return true
		})
	}
	return guards
}

func commentText(cg *ast.CommentGroup) string {
	if cg == nil {
		return ""
	}
	return cg.Text()
}

// checkScope checks one function scope (a FuncDecl body or a FuncLit
// body). Nested function literals are collected and checked as their own
// scopes: goroutine bodies start from an empty lock set, every other
// literal inherits the locks held by the scope that contains it.
func checkScope(pass *analysis.Pass, guards map[*types.Var]guard, scope *ast.BlockStmt, inherited map[string]bool) {
	locked := make(map[string]bool) // "<base expr>.<mu>" the scope locks
	for k := range inherited {
		locked[k] = true
	}
	fresh := make(map[types.Object]bool) // locals built from composite literals
	var nested []*ast.FuncLit
	viaGo := make(map[*ast.FuncLit]bool)

	ast.Inspect(scope, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.GoStmt:
			if lit, ok := s.Call.Fun.(*ast.FuncLit); ok {
				viaGo[lit] = true
			}
		case *ast.FuncLit:
			nested = append(nested, s)
			return false
		case *ast.AssignStmt:
			if len(s.Lhs) == len(s.Rhs) {
				for i := range s.Lhs {
					recordFresh(pass, fresh, s.Lhs[i], s.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(s.Names) == len(s.Values) {
				for i := range s.Names {
					recordFresh(pass, fresh, s.Names[i], s.Values[i])
				}
			}
		case *ast.CallExpr:
			if base, mu, ok := lockCall(s); ok {
				locked[types.ExprString(base)+"."+mu] = true
			}
		}
		return true
	})

	analysis.WalkStack(scope, func(n ast.Node, stack []ast.Node) {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || insideNested(stack, scope) {
			return
		}
		selection := pass.TypesInfo.Selections[sel]
		if selection == nil || selection.Kind() != types.FieldVal {
			return
		}
		fobj, ok := selection.Obj().(*types.Var)
		if !ok {
			return
		}
		g, ok := guards[fobj.Origin()] // a field of a generic type instance maps to its declaration
		if !ok {
			return
		}
		base := ast.Unparen(sel.X)
		if id, ok := base.(*ast.Ident); ok {
			if obj := pass.TypesInfo.ObjectOf(id); obj != nil && fresh[obj] {
				return
			}
		}
		if g.mu == "" {
			// Immutable after construction: reads are free, writes are
			// only legal in the constructing scope (handled by fresh
			// above).
			if isWrite(sel, stack) {
				pass.Reportf(sel.Sel.Pos(),
					"field %s.%s is immutable after construction but written outside its constructor",
					g.structName, g.field)
			}
			return
		}
		if locked[types.ExprString(base)+"."+g.mu] {
			return
		}
		pass.Reportf(sel.Sel.Pos(),
			"field %s.%s is guarded by %s but this function never locks %s.%s; lock it, add a 'Locked' suffix if callers hold it, or waive with //eblow:nondet-ok <reason>",
			g.structName, g.field, g.mu, types.ExprString(base), g.mu)
	})

	for _, lit := range nested {
		if viaGo[lit] {
			checkScope(pass, guards, lit.Body, nil)
		} else {
			checkScope(pass, guards, lit.Body, locked)
		}
	}
}

// insideNested reports whether the walk has descended into a function
// literal; those are checked separately with their own lock sets. The
// walk is rooted at the scope's own body, so any literal on the stack is
// strictly nested.
func insideNested(stack []ast.Node, _ *ast.BlockStmt) bool {
	for _, n := range stack {
		if _, ok := n.(*ast.FuncLit); ok {
			return true
		}
	}
	return false
}

// recordFresh marks lhs as constructor-owned when rhs is a composite
// literal (possibly behind &).
func recordFresh(pass *analysis.Pass, fresh map[types.Object]bool, lhs, rhs ast.Expr) {
	id, ok := lhs.(*ast.Ident)
	if !ok {
		return
	}
	v := ast.Unparen(rhs)
	if u, ok := v.(*ast.UnaryExpr); ok {
		v = ast.Unparen(u.X)
	}
	if _, ok := v.(*ast.CompositeLit); !ok {
		return
	}
	if obj := pass.TypesInfo.ObjectOf(id); obj != nil {
		fresh[obj] = true
	}
}

// lockCall decomposes `<base>.<mu>.Lock()` / `.RLock()` calls.
func lockCall(call *ast.CallExpr) (base ast.Expr, mu string, ok bool) {
	outer, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || (outer.Sel.Name != "Lock" && outer.Sel.Name != "RLock") {
		return nil, "", false
	}
	inner, ok := ast.Unparen(outer.X).(*ast.SelectorExpr)
	if !ok {
		return nil, "", false
	}
	return ast.Unparen(inner.X), inner.Sel.Name, true
}

// isWrite reports whether sel is the target of an assignment, an
// inc/dec statement, or has its address taken.
func isWrite(sel *ast.SelectorExpr, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	switch parent := stack[len(stack)-1].(type) {
	case *ast.AssignStmt:
		for _, lhs := range parent.Lhs {
			if ast.Unparen(lhs) == ast.Expr(sel) {
				return true
			}
		}
	case *ast.IncDecStmt:
		return ast.Unparen(parent.X) == ast.Expr(sel)
	case *ast.UnaryExpr:
		return parent.Op.String() == "&"
	}
	return false
}
