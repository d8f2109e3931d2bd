// Package hotalloc names the line behind an allocation-budget
// regression before TestAllocBudgets trips the gate. It walks every
// function reachable from an event-dispatch root — function values
// handed to sim.Engine.ScheduleCall/ScheduleCallSeq, and named functions
// referenced as values with the engine's one pre-bound dispatcher shape,
// func(any), which Message.Delivered and CT.OnReachCall callbacks share —
// through calls, including calls into generic methods such as
// sim.FreeList's, and reports allocation sites on that hot path:
//
//   - capturing function literals (a closure allocates per event)
//   - fmt.Sprintf / Sprint / Sprintln (Errorf is error-path, exempt)
//   - map literals and make(map) (slice make is the grow-only arena
//     idiom, exempt)
//   - append to a local slice declared without capacity
//   - interface boxing of non-pointer-shaped ScheduleCall arguments and
//     of non-pointer-shaped values stored into interface-typed struct
//     fields (Message.RecvState, Message.DeliveredArg)
//
// Sites inside panic arguments are exempt — a panicking run has no
// budget. Reviewed exceptions (rare-path trace recording, resize-time
// growth) carry //simlint:alloc-ok <reason>.
package hotalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/scripts/simlint/lintkit"
)

// Analyzer reports allocation sites reachable from event-dispatch roots.
var Analyzer = &lintkit.Analyzer{
	Name:       "hotalloc",
	Doc:        "report allocation sites in functions reachable from event-dispatch roots",
	Directives: []string{"alloc-ok"},
	RunModule:  run,
}

func run(mp *lintkit.ModulePass) error {
	g := mp.CallGraph()
	roots := g.Roots(func(n *lintkit.FuncNode) bool {
		return n.DispatchRoot && n.Pkg != nil
	})
	if len(roots) == 0 {
		return nil
	}
	reach := g.Reach(roots, func(k lintkit.EdgeKind) bool {
		return k == lintkit.EdgeStatic || k == lintkit.EdgeIface || k == lintkit.EdgeClosure
	})
	for _, n := range g.Nodes {
		if _, ok := reach[n]; !ok || n.Pkg == nil {
			continue
		}
		// The hot paths the budgets gate all live under internal/; the
		// CLI and lint tooling under cmd/ and scripts/ schedule nothing.
		if !strings.HasPrefix(n.Pkg.Path, lintkit.ModulePath+"/internal/") {
			continue
		}
		scanFunc(mp, n, lintkit.Path(reach, n)[0])
	}
	return nil
}

// scanFunc reports the allocation sites in one hot function. Nested
// literals are separate graph nodes and are scanned on their own visit.
func scanFunc(mp *lintkit.ModulePass, n *lintkit.FuncNode, root *lintkit.FuncNode) {
	var body *ast.BlockStmt
	switch {
	case n.Decl != nil:
		body = n.Decl.Body
	case n.Lit != nil:
		body = n.Lit.Body
	}
	if body == nil {
		return
	}
	s := &scanner{mp: mp, pkg: n.Pkg, root: root, panics: panicSpans(body), noCap: noCapLocals(n.Pkg, body)}
	s.walk(body, body)
}

type scanner struct {
	mp     *lintkit.ModulePass
	pkg    *lintkit.Package
	root   *lintkit.FuncNode
	panics []span
	noCap  map[*types.Var]bool
}

type span struct{ from, to token.Pos }

// panicSpans collects the source ranges of panic(...) arguments.
func panicSpans(body ast.Node) []span {
	var out []span
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok && id.Name == "panic" {
			out = append(out, span{call.Pos(), call.End()})
		}
		return true
	})
	return out
}

func (s *scanner) inPanic(pos token.Pos) bool {
	for _, sp := range s.panics {
		if sp.from <= pos && pos < sp.to {
			return true
		}
	}
	return false
}

// noCapLocals indexes the local slice variables declared without a
// capacity: `var x []T`, `x := []T{...}`, and two-argument make. Their
// appends grow through the allocator on the hot path; a make with an
// explicit capacity (or a struct-field arena) is preallocated ownership
// and exempt.
func noCapLocals(pkg *lintkit.Package, body ast.Node) map[*types.Var]bool {
	out := make(map[*types.Var]bool)
	mark := func(id *ast.Ident, noCap bool) {
		if v, ok := pkg.Info.Defs[id].(*types.Var); ok {
			if _, isSlice := v.Type().Underlying().(*types.Slice); isSlice {
				out[v] = noCap
			}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ValueSpec:
			if len(n.Values) == 0 {
				for _, id := range n.Names {
					mark(id, true)
				}
			}
		case *ast.AssignStmt:
			if n.Tok != token.DEFINE || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok {
					continue
				}
				switch rhs := ast.Unparen(n.Rhs[i]).(type) {
				case *ast.CompositeLit:
					mark(id, true)
				case *ast.CallExpr:
					if fun, ok := ast.Unparen(rhs.Fun).(*ast.Ident); ok && fun.Name == "make" {
						mark(id, len(rhs.Args) < 3)
					}
				}
			}
		}
		return true
	})
	return out
}

// walk reports the allocation sites directly inside fn (descending into
// statements but not into nested function literals, which are their own
// graph nodes).
func (s *scanner) walk(root ast.Node, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if n != root && captures(s.pkg, n) && !s.exempt(n.Pos()) {
				s.reportf(n.Pos(), "capturing func literal allocates a closure per event on the hot path")
			}
			return false
		case *ast.CallExpr:
			s.visitCall(n)
		case *ast.AssignStmt:
			if n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if f := s.ifaceField(lhs); f != nil {
						s.checkBoxing(n.Rhs[i], "store into interface field "+f.Name())
					}
				}
			}
		case *ast.CompositeLit:
			if t := s.pkg.Info.Types[n].Type; t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap && !s.exempt(n.Pos()) {
					s.reportf(n.Pos(), "map literal allocates on the hot path")
				}
			}
		}
		return true
	})
}

func (s *scanner) visitCall(call *ast.CallExpr) {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		switch fun.Name {
		case "make":
			if tv, ok := s.pkg.Info.Types[call]; ok {
				if _, isMap := tv.Type.Underlying().(*types.Map); isMap && !s.exempt(call.Pos()) {
					s.reportf(call.Pos(), "make(map) allocates on the hot path")
				}
			}
		case "append":
			if len(call.Args) == 0 {
				return
			}
			id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
			if !ok {
				return
			}
			v, _ := s.pkg.Info.Uses[id].(*types.Var)
			if v != nil && s.noCap[v] && !s.exempt(call.Pos()) {
				s.reportf(call.Pos(), "append to %s grows an un-preallocated local slice on the hot path: make it with capacity or hoist it to owner state", id.Name)
			}
		}
	case *ast.SelectorExpr:
		fn, _ := s.pkg.Info.Uses[fun.Sel].(*types.Func)
		if fn == nil {
			return
		}
		if fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
			switch fn.Name() {
			case "Sprintf", "Sprint", "Sprintln":
				if !s.exempt(call.Pos()) {
					s.reportf(call.Pos(), "fmt.%s allocates its result on the hot path", fn.Name())
				}
			}
			return
		}
		simPath := lintkit.ModulePath + "/internal/sim"
		if lintkit.IsMethod(fn, simPath, "Engine", "ScheduleCall") && len(call.Args) == 3 {
			s.checkBoxing(call.Args[2], "ScheduleCall argument")
		}
		if lintkit.IsMethod(fn, simPath, "Engine", "ScheduleCallSeq") && len(call.Args) == 6 {
			s.checkBoxing(call.Args[5], "ScheduleCall argument")
		}
	}
}

// ifaceField returns the struct field lhs selects when that field has an
// interface type, or nil.
func (s *scanner) ifaceField(lhs ast.Expr) *types.Var {
	sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	if fs := s.pkg.Info.Selections[sel]; fs == nil || fs.Kind() != types.FieldVal {
		return nil
	}
	f, _ := s.pkg.Info.Uses[sel.Sel].(*types.Var)
	if f == nil || !types.IsInterface(f.Type()) {
		return nil
	}
	return f
}

// checkBoxing flags a value (what: a ScheduleCall argument, or a store
// into an interface-typed field) whose conversion to an interface
// allocates: anything but a pointer-shaped value or an existing interface.
func (s *scanner) checkBoxing(arg ast.Expr, what string) {
	tv, ok := s.pkg.Info.Types[arg]
	if !ok || tv.Type == nil || tv.IsNil() {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Interface, *types.Chan, *types.Map, *types.Signature:
		return
	case *types.Basic:
		if tv.Type.Underlying().(*types.Basic).Kind() == types.UnsafePointer {
			return
		}
	}
	if s.exempt(arg.Pos()) {
		return
	}
	s.reportf(arg.Pos(), "%s of type %s boxes into an interface per event: pass pooled pointer state instead", what, types.TypeString(tv.Type, nil))
}

func (s *scanner) exempt(pos token.Pos) bool {
	return s.inPanic(pos) || s.mp.Allowed("alloc-ok", s.pkg, pos)
}

func (s *scanner) reportf(pos token.Pos, format string, args ...any) {
	msg := make([]any, 0, len(args)+1)
	msg = append(msg, args...)
	s.mp.Reportf(s.pkg, pos, format+" (reachable from dispatch root %s; //simlint:alloc-ok <reason> for reviewed sites)", append(msg, s.root.Name())...)
}

// captures reports whether the literal closes over any variable declared
// outside it — package-level vars and fields do not force a closure
// allocation by themselves, captured locals and receivers do.
func captures(pkg *lintkit.Package, lit *ast.FuncLit) bool {
	found := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pkg.Info.Uses[id].(*types.Var)
		if !ok || v.IsField() || v.Pkg() == nil {
			return true
		}
		if v.Parent() != nil && v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true // package-level var
		}
		if v.Pos() < lit.Pos() || v.Pos() >= lit.End() {
			found = true
		}
		return true
	})
	return found
}
