# Tier-1 verification plus the merge gates: `make check` is the one command
# CI (.github/workflows/ci.yml) and contributors run before merging.

GO ?= go

# VERSION stamps binaries with the code revision (internal/buildinfo); the
# serve layer keys its result cache on it, so a rebuild can never serve a
# stale cached table. Outside a git checkout it degrades to "dev".
VERSION ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo dev)
LDFLAGS = -ldflags "-X repro/internal/buildinfo.Version=$(VERSION)"

.PHONY: check build test vet lint race bench bench-micro serve

check:
	sh scripts/check.sh

# lint runs the nine repo-specific analyzers (cmd/simlint): nosyncpool,
# nowallclock, maporder, poolretain, pkgdoc, lpowner, servebound,
# hotalloc, staledirective — each enforcing an
# ARCHITECTURE.md contract clause (the last three over the module call
# graph). -suppressions audits the //simlint: annotation inventory.
lint:
	$(GO) run ./cmd/simlint ./...
	$(GO) run ./cmd/simlint -suppressions ./...

# race gates the parallel sweep / concurrent-experiment runners; CI runs
# this as its own job.
race:
	$(GO) test -race ./...
	$(GO) test -race -count=1 -run 'TestSweepResetAndParallelDeterminism' ./internal/bench
	$(GO) test -race -count=1 -run 'TestImpairedSweepDeterminism' ./internal/bench
	$(GO) test -race -count=1 -run 'TestSerialVsConcurrentExperimentsByteIdentical' ./cmd/spinbench
	$(GO) test -race -count=1 -run 'TestPoolRunByteIdentical' ./internal/bench
	$(GO) test -race -count=1 -run 'TestConcurrentIdenticalRequestsRunOnce' ./internal/serve
	$(GO) test -race -count=1 -run 'TestOverlappingScalesReusePoints' ./internal/serve
	$(GO) test -race -count=1 -run 'TestOneContentAddressPerResult' ./internal/serve
	$(GO) test -race -count=1 -run 'TestLPEquivalenceRandomized' ./internal/bench
	$(GO) test -race -count=10 -run 'TestRunAppOverlapMatchesFresh' ./internal/bench

build:
	$(GO) build $(LDFLAGS) ./...

# serve runs the experiment service on :8080 with the version stamp baked
# in (see README "Serving").
serve:
	$(GO) run $(LDFLAGS) ./cmd/spinserve

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# bench regenerates every paper benchmark once, reporting allocations.
bench:
	$(GO) test -run='^$$' -bench=. -benchtime=1x -benchmem .

# bench-micro runs the hot-path microbenchmarks tracked in BENCH_core.json.
bench-micro:
	$(GO) test -run='^$$' -bench=. -benchmem ./internal/sim ./internal/netsim ./internal/fattree ./internal/hostsim ./internal/mpisim ./internal/datatype ./internal/serve
