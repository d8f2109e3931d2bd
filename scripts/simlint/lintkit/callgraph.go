package lintkit

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// This file builds the conservative module call graph behind the
// module-wide analyzers (servebound, hotalloc). Nodes are named functions
// and function literals; edges record how control can flow between them.
// The graph over-approximates: interface calls fan out to every named
// module type whose method set satisfies the interface, and function
// values referenced (stored in a field, passed as an argument) are
// connected with Ref edges even though they may never be invoked.
// Analyzers pick which edge kinds to traverse — servebound, for example,
// follows calls but not Ref edges (a registry holding experiment
// constructors does not execute them), and stops at PoolTask edges
// because pool submission is exactly the sanctioned handoff out of the
// HTTP goroutine.

// EdgeKind classifies one call-graph edge.
type EdgeKind uint8

const (
	// EdgeStatic is a direct call of a named function or concrete method.
	EdgeStatic EdgeKind = iota
	// EdgeIface is an interface method call, resolved conservatively to
	// every named module type implementing the interface.
	EdgeIface
	// EdgeRef is a function value referenced without being called here
	// (stored, passed, bound); the value may run later, anywhere.
	EdgeRef
	// EdgeClosure connects a function to a literal it creates.
	EdgeClosure
	// EdgePoolTask connects a function to a task it submits to a
	// bench.Pool — the one sanctioned engine-touching handoff from the
	// serving layer.
	EdgePoolTask
)

// String names the kind for diagnostics and tests.
func (k EdgeKind) String() string {
	switch k {
	case EdgeStatic:
		return "static"
	case EdgeIface:
		return "iface"
	case EdgeRef:
		return "ref"
	case EdgeClosure:
		return "closure"
	case EdgePoolTask:
		return "pooltask"
	}
	return "unknown"
}

// An Edge is one outgoing connection from a FuncNode, anchored at the
// source position that creates it (call site, literal, or reference).
type Edge struct {
	Kind EdgeKind
	Site token.Pos
	To   *FuncNode
}

// A FuncNode is one function in the graph: a declared function or method
// (Fn set), a function literal (Lit set), or an external function whose
// body is not loaded (only Fn set, Pkg nil).
type FuncNode struct {
	Key  string        // stable identity: FullName, or pkg+position for literals
	Fn   *types.Func   // nil for literals
	Lit  *ast.FuncLit  // nil for named functions
	Decl *ast.FuncDecl // nil unless the body was loaded
	Pkg  *Package      // package owning the body; nil for external leaves
	Out  []Edge

	// DispatchRoot marks event-dispatch entry points: function values
	// handed to sim.Engine.ScheduleCall/ScheduleCallSeq, and named
	// functions or methods referenced as values with the engine's pre-bound
	// dispatcher signature func(any).
	DispatchRoot bool

	label string
	pos   token.Pos
}

// Name returns a human-readable label for diagnostics.
func (n *FuncNode) Name() string { return n.label }

// Pos returns the node's declaration (or literal) position; NoPos for
// external leaves.
func (n *FuncNode) Pos() token.Pos { return n.pos }

// A CallGraph holds every node with deterministic ordering.
type CallGraph struct {
	Nodes []*FuncNode
	byKey map[string]*FuncNode
	byFn  map[*types.Func]*FuncNode
}

// NodeFor returns the node of a declared function, creating an external
// leaf if its body was not loaded. A method of an instantiated generic type
// maps to its generic origin, whose body is the one declared and scanned.
func (g *CallGraph) NodeFor(fn *types.Func) *FuncNode {
	fn = fn.Origin()
	if n, ok := g.byFn[fn]; ok {
		return n
	}
	key := fn.FullName()
	if n, ok := g.byKey[key]; ok {
		return n
	}
	n := &FuncNode{Key: key, Fn: fn, label: key}
	g.byKey[key] = n
	g.byFn[fn] = n
	g.Nodes = append(g.Nodes, n)
	return n
}

// Lookup returns the node with the given key, or nil.
func (g *CallGraph) Lookup(key string) *FuncNode { return g.byKey[key] }

// Roots returns the nodes satisfying pred, in graph order.
func (g *CallGraph) Roots(pred func(*FuncNode) bool) []*FuncNode {
	var out []*FuncNode
	for _, n := range g.Nodes {
		if pred(n) {
			out = append(out, n)
		}
	}
	return out
}

// A PathStep records how reachability first arrived at a node, so
// diagnostics can print the root-to-site call chain.
type PathStep struct {
	From *FuncNode
	Edge Edge
}

// Reach runs a breadth-first traversal from roots over the edge kinds
// follow accepts, returning for every reached node the step that first
// discovered it (roots map to a zero PathStep). Order is deterministic:
// roots in the given order, edges in creation order.
func (g *CallGraph) Reach(roots []*FuncNode, follow func(EdgeKind) bool) map[*FuncNode]PathStep {
	seen := make(map[*FuncNode]PathStep, len(roots))
	queue := make([]*FuncNode, 0, len(roots))
	for _, r := range roots {
		if _, ok := seen[r]; !ok {
			seen[r] = PathStep{}
			queue = append(queue, r)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range n.Out {
			if !follow(e.Kind) {
				continue
			}
			if _, ok := seen[e.To]; ok {
				continue
			}
			seen[e.To] = PathStep{From: n, Edge: e}
			queue = append(queue, e.To)
		}
	}
	return seen
}

// Path reconstructs the root-to-node chain recorded by Reach.
func Path(reach map[*FuncNode]PathStep, n *FuncNode) []*FuncNode {
	var rev []*FuncNode
	for cur := n; cur != nil; {
		rev = append(rev, cur)
		step, ok := reach[cur]
		if !ok || step.From == nil {
			break
		}
		cur = step.From
	}
	out := make([]*FuncNode, len(rev))
	for i, n := range rev {
		out[len(rev)-1-i] = n
	}
	return out
}

// graphBuilder carries the per-build state.
type graphBuilder struct {
	g          *CallGraph
	candidates []*types.Named // named non-interface module types, for iface resolution
	ifaceMemo  map[string][]*types.Func

	// per-declaration scratch, reset for each top-level function body
	pkg      *Package
	funSet   map[ast.Expr]bool   // call-position expressions (not value refs)
	selSels  map[*ast.Ident]bool // Sel idents of selector expressions
	poolLits map[*ast.FuncLit]bool
	rootLits map[*ast.FuncLit]bool
}

// buildCallGraph constructs the conservative call graph over the loaded
// packages.
func buildCallGraph(pkgs []*Package) *CallGraph {
	b := &graphBuilder{
		g:         &CallGraph{byKey: make(map[string]*FuncNode), byFn: make(map[*types.Func]*FuncNode)},
		ifaceMemo: make(map[string][]*types.Func),
	}
	for _, pkg := range pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			if _, isIface := named.Underlying().(*types.Interface); isIface {
				continue
			}
			b.candidates = append(b.candidates, named)
		}
	}
	// Declare every function with a body before walking any, so forward
	// and cross-package references resolve to the same nodes.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				n := b.g.NodeFor(fn)
				n.Decl = fd
				n.Pkg = pkg
				n.pos = fd.Pos()
			}
		}
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				b.walkDecl(pkg, b.g.NodeFor(fn), fd.Body)
			}
		}
	}
	return b.g
}

// walkDecl processes one top-level function body: classifies every
// expression position, then attaches edges to the declared node and any
// literals it creates.
func (b *graphBuilder) walkDecl(pkg *Package, node *FuncNode, body *ast.BlockStmt) {
	b.pkg = pkg
	b.funSet = make(map[ast.Expr]bool)
	b.selSels = make(map[*ast.Ident]bool)
	b.poolLits = make(map[*ast.FuncLit]bool)
	b.rootLits = make(map[*ast.FuncLit]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			b.funSet[ast.Unparen(n.Fun)] = true
		case *ast.SelectorExpr:
			b.selSels[n.Sel] = true
		}
		return true
	})
	b.walkBody(node, body)
}

// walkBody attaches edges for everything inside body to cur, recursing
// into function literals with their own nodes.
func (b *graphBuilder) walkBody(cur *FuncNode, body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			b.visitCall(cur, n)
			return true
		case *ast.FuncLit:
			lit := b.litNode(n)
			kind := EdgeClosure
			if b.poolLits[n] {
				kind = EdgePoolTask
			}
			b.edge(cur, kind, n.Pos(), lit)
			if b.rootLits[n] {
				lit.DispatchRoot = true
			}
			b.walkBody(lit, n.Body)
			return false
		case *ast.SelectorExpr:
			if !b.funSet[n] {
				b.visitRef(cur, n, n.Sel)
			}
			return true
		case *ast.Ident:
			if !b.funSet[ast.Expr(n)] && !b.selSels[n] {
				b.visitRef(cur, n, n)
			}
			return true
		}
		return true
	})
}

// litNode creates (or returns) the node of a function literal.
func (b *graphBuilder) litNode(lit *ast.FuncLit) *FuncNode {
	pos := b.pkg.Fset.Position(lit.Pos())
	key := fmt.Sprintf("%s.funclit@%s:%d:%d", b.pkg.Path, pos.Filename, pos.Line, pos.Column)
	if n, ok := b.g.byKey[key]; ok {
		return n
	}
	n := &FuncNode{
		Key:   key,
		Lit:   lit,
		Pkg:   b.pkg,
		label: fmt.Sprintf("%s: function literal at %s:%d", b.pkg.Path, pos.Filename, pos.Line),
		pos:   lit.Pos(),
	}
	b.g.byKey[key] = n
	b.g.Nodes = append(b.g.Nodes, n)
	return n
}

func (b *graphBuilder) edge(from *FuncNode, kind EdgeKind, site token.Pos, to *FuncNode) {
	from.Out = append(from.Out, Edge{Kind: kind, Site: site, To: to})
}

// visitCall resolves one call expression to Static or Iface edges and
// handles the two special callees: engine scheduling methods (whose
// function arguments become dispatch roots) and bench.Pool.submit (whose
// task literals get PoolTask edges).
func (b *graphBuilder) visitCall(cur *FuncNode, call *ast.CallExpr) {
	fun := ast.Unparen(call.Fun)
	var callee *types.Func
	switch f := fun.(type) {
	case *ast.Ident:
		callee, _ = b.pkg.Info.Uses[f].(*types.Func)
	case *ast.SelectorExpr:
		if sel, ok := b.pkg.Info.Selections[f]; ok && sel.Kind() == types.MethodVal {
			if iface, ok := sel.Recv().Underlying().(*types.Interface); ok {
				for _, impl := range b.resolveIface(iface, f.Sel.Name) {
					b.edge(cur, EdgeIface, call.Pos(), b.g.NodeFor(impl))
				}
				return
			}
		}
		callee, _ = b.pkg.Info.Uses[f.Sel].(*types.Func)
	}
	if callee == nil {
		return // dynamic call through a function value; Ref edges cover the target
	}
	b.edge(cur, EdgeStatic, call.Pos(), b.g.NodeFor(callee))

	simPath := ModulePath + "/internal/sim"
	if IsMethod(callee, simPath, "Engine", "ScheduleCall") ||
		IsMethod(callee, simPath, "Engine", "ScheduleCallSeq") {
		for _, arg := range call.Args {
			b.markDispatchArg(arg)
		}
	}
	if IsMethod(callee, ModulePath+"/internal/bench", "Pool", "submit") {
		for _, arg := range call.Args {
			if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
				b.poolLits[lit] = true
			} else if fn := b.funcValue(arg); fn != nil {
				b.edge(cur, EdgePoolTask, arg.Pos(), b.g.NodeFor(fn))
			}
		}
	}
}

// markDispatchArg marks a function-typed scheduling argument as an event
// dispatch root.
func (b *graphBuilder) markDispatchArg(arg ast.Expr) {
	if lit, ok := ast.Unparen(arg).(*ast.FuncLit); ok {
		b.rootLits[lit] = true
		return
	}
	if fn := b.funcValue(arg); fn != nil {
		b.g.NodeFor(fn).DispatchRoot = true
	}
}

// funcValue resolves an expression to the declared function it denotes
// (plain reference or method value), or nil.
func (b *graphBuilder) funcValue(e ast.Expr) *types.Func {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		fn, _ := b.pkg.Info.Uses[e].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := b.pkg.Info.Uses[e.Sel].(*types.Func)
		return fn
	}
	return nil
}

// visitRef handles a named function or method referenced as a value: a
// Ref edge, plus dispatch-root marking for the pre-bound dispatcher
// signature func(any).
func (b *graphBuilder) visitRef(cur *FuncNode, e ast.Expr, id *ast.Ident) {
	fn, ok := b.pkg.Info.Uses[id].(*types.Func)
	if !ok {
		return
	}
	if sel, isSel := e.(*ast.SelectorExpr); isSel {
		if s, ok := b.pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			if iface, ok := s.Recv().Underlying().(*types.Interface); ok {
				for _, impl := range b.resolveIface(iface, id.Name) {
					b.edge(cur, EdgeRef, e.Pos(), b.g.NodeFor(impl))
					b.markDispatcherSig(impl)
				}
				return
			}
		}
	}
	n := b.g.NodeFor(fn)
	b.edge(cur, EdgeRef, e.Pos(), n)
	b.markDispatcherSig(fn)
}

// markDispatcherSig marks fn as a dispatch root when its signature is the
// pre-bound dispatcher shape the engine invokes, func(any).
func (b *graphBuilder) markDispatcherSig(fn *types.Func) {
	sig, _ := fn.Type().(*types.Signature)
	if sig == nil || sig.Results().Len() != 0 || sig.Params().Len() != 1 {
		return
	}
	if iface, ok := sig.Params().At(0).Type().Underlying().(*types.Interface); ok && iface.Empty() {
		b.g.NodeFor(fn).DispatchRoot = true
	}
}

// resolveIface returns the concrete methods satisfying an interface
// method call, over every named non-interface type in the loaded
// packages. Both the value and pointer method sets are considered.
func (b *graphBuilder) resolveIface(iface *types.Interface, method string) []*types.Func {
	key := types.TypeString(iface, nil) + "." + method
	if fns, ok := b.ifaceMemo[key]; ok {
		return fns
	}
	var fns []*types.Func
	for _, named := range b.candidates {
		if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
			continue
		}
		obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), method)
		if fn, ok := obj.(*types.Func); ok {
			fns = append(fns, fn)
		}
	}
	b.ifaceMemo[key] = fns
	return fns
}
