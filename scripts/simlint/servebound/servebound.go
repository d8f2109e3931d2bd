// Package servebound machine-checks the ARCHITECTURE.md "Serving layer"
// clause: HTTP goroutines never touch an engine. No function reachable
// from an internal/serve HTTP handler may call into the sim, netsim,
// mpisim, or raidsim engine or cluster entry points — engines are
// single-threaded and execute only on bench.Pool workers, or on a
// goroutine that a worker's point starts and joins (table5c's overlapped
// sPIN replay), so the one sanctioned handoff is pool task submission,
// which the analyzer models as a cut edge in the call graph. Reachability
// follows calls (static, interface-resolved) and closures but not bare
// function-value references: a registry holding experiment constructors
// does not run them on the request goroutine. Reviewed exceptions carry
// //simlint:servebound-ok <reason>.
package servebound

import (
	"go/types"
	"strings"

	"repro/scripts/simlint/lintkit"
)

// Analyzer flags engine calls reachable from internal/serve handlers.
var Analyzer = &lintkit.Analyzer{
	Name:       "servebound",
	Doc:        "forbid sim/netsim/mpisim/raidsim engine calls reachable from internal/serve HTTP handlers",
	Directives: []string{"servebound-ok"},
	RunModule:  run,
}

var servePath = lintkit.ModulePath + "/internal/serve"

func run(mp *lintkit.ModulePass) error {
	g := mp.CallGraph()
	roots := g.Roots(func(n *lintkit.FuncNode) bool {
		if n.Pkg == nil || n.Pkg.Path != servePath {
			return false
		}
		return isHandler(n)
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
		for _, e := range n.Out {
			if e.Kind != lintkit.EdgeStatic && e.Kind != lintkit.EdgeIface {
				continue
			}
			if e.To.Fn == nil || !engineEntry(e.To.Fn) {
				continue
			}
			if mp.Allowed("servebound-ok", n.Pkg, e.Site) {
				continue
			}
			path := lintkit.Path(reach, n)
			mp.Reportf(n.Pkg, e.Site,
				"call to %s is reachable from HTTP handler %s: HTTP goroutines never touch an engine — submit the work to the bench.Pool instead (ARCHITECTURE.md, serving layer)",
				e.To.Name(), path[0].Name())
		}
	}
	return nil
}

// isHandler reports whether the node is an HTTP handler in the serve
// package: a named function, method, or literal with signature
// func(http.ResponseWriter, *http.Request).
func isHandler(n *lintkit.FuncNode) bool {
	var sig *types.Signature
	switch {
	case n.Fn != nil:
		sig, _ = n.Fn.Type().(*types.Signature)
	case n.Lit != nil:
		if tv, ok := n.Pkg.Info.Types[n.Lit]; ok {
			sig, _ = tv.Type.(*types.Signature)
		}
	}
	if sig == nil || sig.Params().Len() != 2 || sig.Results().Len() != 0 {
		return false
	}
	return isNamed(sig.Params().At(0).Type(), "net/http", "ResponseWriter") &&
		isPtrToNamed(sig.Params().At(1).Type(), "net/http", "Request")
}

func isNamed(t types.Type, pkgPath, name string) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == name &&
		named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == pkgPath
}

func isPtrToNamed(t types.Type, pkgPath, name string) bool {
	ptr, ok := t.(*types.Pointer)
	return ok && isNamed(ptr.Elem(), pkgPath, name)
}

// engineEntry reports whether fn is an engine or cluster entry point:
// any method on the engine-owning types, or their constructors. Pure
// data helpers in the same packages (netsim.ParseImpairment,
// Impairment.Key, FaultStats arithmetic) are deliberately not listed —
// the serving layer parses and validates; it must not simulate.
func engineEntry(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	recvPkg, recvName, isMethod := lintkit.ReceiverNamed(fn)
	prefix := lintkit.ModulePath + "/internal/"
	switch strings.TrimPrefix(pkg.Path(), prefix) {
	case "sim":
		if isMethod {
			return recvName == "Engine" || recvName == "Windows"
		}
		return fn.Name() == "NewEngine" || fn.Name() == "NewWindows"
	case "netsim":
		if isMethod {
			return recvPkg == pkg.Path() && (recvName == "Cluster" || recvName == "Node")
		}
		return fn.Name() == "NewCluster" || fn.Name() == "NewClusterLP"
	case "mpisim":
		if isMethod {
			return recvName == "Engine"
		}
		return fn.Name() == "New"
	case "raidsim":
		if isMethod {
			return recvName == "System"
		}
		return fn.Name() == "New"
	}
	return false
}
