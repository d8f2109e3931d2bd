// Command simlint is the repository's multichecker: it runs the nine
// analyzers that mechanically enforce the determinism, pooling,
// serve-boundary, and LP-ownership contracts of ARCHITECTURE.md —
// nosyncpool (free lists must be engine-owned), nowallclock (no wall
// clock or global PRNG in simulation code), maporder (no unordered map
// iteration), poolretain (no pooled *Packet/*Message homes outside the
// owner layers), pkgdoc (every package documents its role), servebound (no
// engine calls reachable from an HTTP handler except through bench.Pool
// submission), lpowner (no cross-shard access to shard-owned LP cluster
// state), hotalloc (no unannotated allocation sites reachable from
// event-dispatch roots), and staledirective (every //simlint: annotation
// must still suppress something).
//
// Usage: go run ./cmd/simlint [flags] [packages]   (default ./...)
//
//	-json          write diagnostics as a JSON array to stdout
//	               (file/line/col/analyzer/message/suppression)
//	-suppressions  report every live //simlint: directive with its reason
//	               and usage count; stale or unknown entries fail the run
//	-gh            also emit GitHub Actions ::error workflow commands so
//	               CI renders findings as inline file:line annotations
//
// Exit status: 0 clean, 1 findings (printed file:line:col, go-vet style),
// 2 load failure. Annotations create audited exceptions, each requiring a
// reason: //simlint:wallclock-ok, //simlint:unordered-ok,
// //simlint:servebound-ok, //simlint:lpowner-ok, and //simlint:alloc-ok.
// make lint, scripts/check.sh, and both CI matrix jobs run this command
// on every merge.
//
// Directive staleness is judged against the loaded package set, and the
// call-graph analyzers need the packages containing the dispatch roots
// and HTTP handlers loaded to exercise a suppression — so partial runs
// (a single package argument) may report module-wide directives as
// stale. Trust -suppressions output from full ./... runs only.
package main

import (
	"flag"
	"os"

	"repro/scripts/simlint"
	"repro/scripts/simlint/lintkit"
)

func main() {
	var opts lintkit.CLIOptions
	flag.BoolVar(&opts.JSON, "json", false, "write diagnostics as JSON to stdout")
	flag.BoolVar(&opts.Suppressions, "suppressions", false, "report live //simlint: directives; fail on stale entries")
	flag.BoolVar(&opts.GitHub, "gh", false, "emit GitHub Actions ::error annotations to stderr")
	flag.Parse()
	os.Exit(lintkit.RunCLI(simlint.Analyzers(), flag.Args(), opts, os.Stdout, os.Stderr))
}
