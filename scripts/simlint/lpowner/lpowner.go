// Package lpowner statically enforces the Parallel-DES shard-ownership
// rules of ARCHITECTURE.md, turning the window-barrier runtime panics
// into compile-time findings:
//
// Rule A (inside netsim): shard-owned pooled state — free lists, link
// sequence counters, stats, the cross-shard outbox — may only be touched
// through the owning cluster's receiver. A Cluster method reaching into
// a *different* cluster's listed fields is cross-shard retention; the
// two sanctioned sites (the root's window-barrier flush and stats fold)
// carry //simlint:lpowner-ok <reason>.
//
// Rule B (packages building LP clusters): any package that calls
// netsim.NewClusterLP must not install Message.Delivered callbacks or a
// Cluster recorder by field assignment — cross-LP
// delivery callbacks are exactly what the transport's runtime panic
// rejects at the barrier, and this flags them before the first run.
package lpowner

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/scripts/simlint/lintkit"
)

// Analyzer flags cross-shard access to shard-owned LP cluster state.
var Analyzer = &lintkit.Analyzer{
	Name:       "lpowner",
	Doc:        "flag cross-shard access to shard-owned pooled state and callback registration on LP clusters",
	Directives: []string{"lpowner-ok"},
	Run:        run,
}

// shardOwned lists the Cluster fields a shard owns exclusively between
// window barriers (ARCHITECTURE.md, Parallel DES).
var shardOwned = map[string]bool{
	"pktFree": true, "walkFree": true, "msgFree": true,
	"linkSeq": true, "quarantine": true,
	"outbox": true, "crossBuf": true, "nextID": true,
	"Faults": true, "MessagesSent": true, "PacketsSent": true, "BytesSent": true,
}

func run(pass *lintkit.Pass) error {
	netsimPath := lintkit.ModulePath + "/internal/netsim"
	path := pass.Pkg.Path()
	switch {
	case path == netsimPath:
		runOwner(pass, netsimPath)
	case path == lintkit.ModulePath || strings.HasPrefix(path, lintkit.ModulePath+"/"):
		runClient(pass, netsimPath)
	}
	return nil
}

// runOwner applies rule A to the netsim package itself.
func runOwner(pass *lintkit.Pass, netsimPath string) {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil || len(fd.Recv.List) == 0 {
				continue
			}
			recvField := fd.Recv.List[0]
			if !isClusterType(pass.TypesInfo.Types[recvField.Type].Type, netsimPath) {
				continue
			}
			var recvObj types.Object
			if len(recvField.Names) > 0 {
				recvObj = pass.TypesInfo.Defs[recvField.Names[0]]
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok || !shardOwned[sel.Sel.Name] {
					return true
				}
				s, ok := pass.TypesInfo.Selections[sel]
				if !ok || s.Kind() != types.FieldVal || !isClusterType(s.Recv(), netsimPath) {
					return true
				}
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && recvObj != nil && pass.TypesInfo.Uses[id] == recvObj {
					return true // the method's own shard
				}
				if pass.Allowed("lpowner-ok", sel.Pos()) {
					return true
				}
				pass.Reportf(sel.Pos(),
					"%s.%s accessed through a cluster other than the method receiver: %s is shard-owned between window barriers — only the owning shard may touch it (ARCHITECTURE.md, Parallel DES; runtime analogue: the LP barrier panics)",
					"Cluster", sel.Sel.Name, sel.Sel.Name)
				return true
			})
		}
	}
}

// runClient applies rule B to packages that build LP clusters.
func runClient(pass *lintkit.Pass, netsimPath string) {
	buildsLP := false
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := calleeFunc(pass, call); fn != nil &&
				fn.Name() == "NewClusterLP" && fnPkgPath(fn) == netsimPath {
				buildsLP = true
			}
			return true
		})
	}
	if !buildsLP {
		return
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					sel, ok := ast.Unparen(lhs).(*ast.SelectorExpr)
					if !ok {
						continue
					}
					checkRegistration(pass, sel, sel.Sel.Name, netsimPath)
				}
			case *ast.CompositeLit:
				t := pass.TypesInfo.Types[n].Type
				if t == nil || !isNetsimNamed(t, netsimPath, "Message") {
					return true
				}
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); ok && key.Name == "Delivered" {
						report(pass, kv.Pos(), key.Name)
					}
				}
			}
			return true
		})
	}
}

// checkRegistration flags `x.Delivered = ...` on netsim.Message and
// `x.Rec = ...` on netsim.Cluster in LP-building packages.
func checkRegistration(pass *lintkit.Pass, sel *ast.SelectorExpr, field, netsimPath string) {
	s, ok := pass.TypesInfo.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return
	}
	switch field {
	case "Delivered":
		if isNetsimNamed(s.Recv(), netsimPath, "Message") {
			report(pass, sel.Pos(), field)
		}
	case "Rec":
		if isNetsimNamed(s.Recv(), netsimPath, "Cluster") {
			if pass.Allowed("lpowner-ok", sel.Pos()) {
				return
			}
			pass.Reportf(sel.Pos(),
				"Cluster.Rec assigned in a package that builds LP clusters: recorders must be registered on every shard through the netsim constructors, not patched onto one cluster (ARCHITECTURE.md, Parallel DES)")
		}
	}
}

func report(pass *lintkit.Pass, pos token.Pos, field string) {
	if pass.Allowed("lpowner-ok", pos) {
		return
	}
	pass.Reportf(pos,
		"Message.%s set in a package that builds LP clusters: a send-completion callback cannot cross the shard boundary at the window barrier (ARCHITECTURE.md, Parallel DES; runtime analogue: the cross-LP delivery panic)",
		field)
}

// isClusterType reports whether t (possibly pointer) is the netsim
// Cluster type — matched by name and package so fixture packages
// type-checked *as* netsim exercise the rule.
func isClusterType(t types.Type, netsimPath string) bool {
	return isNetsimNamed(t, netsimPath, "Cluster")
}

func isNetsimNamed(t types.Type, netsimPath, name string) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == name &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == netsimPath
}

func calleeFunc(pass *lintkit.Pass, call *ast.CallExpr) *types.Func {
	switch f := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := pass.TypesInfo.Uses[f].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := pass.TypesInfo.Uses[f.Sel].(*types.Func)
		return fn
	}
	return nil
}

func fnPkgPath(fn *types.Func) string {
	if fn.Pkg() == nil {
		return ""
	}
	return fn.Pkg().Path()
}
