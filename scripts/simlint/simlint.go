// Package simlint assembles the repository's analyzer suite: nine
// lintkit analyzers, each enforcing one normative clause of
// ARCHITECTURE.md mechanically instead of by prose and post-hoc golden
// diffs — five per-package checks plus the call-graph analyzers
// (servebound, hotalloc), the LP shard-ownership check (lpowner), and
// the suppression-inventory audit (staledirective). The closure-free
// scheduling clause needs no analyzer of its own: sim.Engine has no
// closure-taking method, so the compiler rejects a per-event closure, and
// hotalloc flags capturing closures built on dispatch paths. cmd/simlint
// runs the whole suite (`go run ./cmd/simlint ./...`, wired into make
// lint, scripts/check.sh, and CI); the repo-wide smoke test in this
// package keeps `go test ./...` failing on any new violation even when
// the lint step itself is skipped.
package simlint

import (
	"repro/scripts/simlint/hotalloc"
	"repro/scripts/simlint/lintkit"
	"repro/scripts/simlint/lpowner"
	"repro/scripts/simlint/maporder"
	"repro/scripts/simlint/nosyncpool"
	"repro/scripts/simlint/nowallclock"
	"repro/scripts/simlint/pkgdoc"
	"repro/scripts/simlint/poolretain"
	"repro/scripts/simlint/servebound"
	"repro/scripts/simlint/staledirective"
)

// Analyzers returns the full suite. Per-package analyzers come first in
// reporting-name order; module analyzers follow, with staledirective
// last — it audits the directive usage the rest of the run records, so
// suite order is load-bearing for it.
func Analyzers() []*lintkit.Analyzer {
	return []*lintkit.Analyzer{
		lpowner.Analyzer,
		maporder.Analyzer,
		nosyncpool.Analyzer,
		nowallclock.Analyzer,
		pkgdoc.Analyzer,
		poolretain.Analyzer,
		hotalloc.Analyzer,
		servebound.Analyzer,
		staledirective.Analyzer,
	}
}
