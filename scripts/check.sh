#!/bin/sh
# check.sh — tier-1 verification plus the merge gates in one command.
# Usage: scripts/check.sh   (or: make check; CI runs exactly this)
set -eu
cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== examples build =="
# ./... covers these too, but the explicit step keeps the gate visible: every
# example must keep compiling, and each must say which paper figure/table it
# reproduces (the package-comment lint below checks the comment exists).
go build ./examples/...

echo "== simlint =="
# Repo-specific analyzers, one per ARCHITECTURE.md contract clause:
# nosyncpool (engine-owned free lists only), nowallclock (simulated time is
# a function of the seed), maporder (no nondeterministic map iteration),
# poolretain (pooled transport objects stay with their owner packages),
# pkgdoc (every package documents its role), lpowner (shard-owned LP state
# stays with its owning receiver), and — over the module call graph —
# servebound (no engine call reachable from an HTTP handler), hotalloc (no
# allocation site, capturing closures included, reachable from an
# event-dispatch root), staledirective (every annotation still suppresses
# something). The engine has no closure-taking schedule method, so the
# compiler itself keeps per-event closures off the queue. The run is timed:
# the whole suite, call-graph construction included, must finish within 5
# seconds so linting stays cheap enough to gate every merge.
lint_start=$(date +%s)
go run ./cmd/simlint ./...
lint_end=$(date +%s)
lint_secs=$((lint_end - lint_start))
echo "simlint: ${lint_secs}s"
if [ "$lint_secs" -gt 5 ]; then
	echo "simlint exceeded the 5s budget (${lint_secs}s): the suite must stay cheap enough to gate every merge" >&2
	exit 1
fi

echo "== simlint suppressions =="
# The //simlint: annotation inventory must be clean: every directive names
# an analyzer in the suite and still suppresses at least one finding
# (staledirective reports the same conditions as diagnostics; this step
# prints the audited inventory for the log).
go run ./cmd/simlint -suppressions ./...

echo "== go test =="
go test ./...

echo "== sweep determinism smoke (fresh vs Reset-reuse vs pool) =="
# Byte-equality across the from-scratch, serial-reuse, and worker-pool
# runners for every reuse mechanism: fig3b/fig5a (cluster cache), table5c
# (mpisim engine cache), spc and fig7c (raidsim system cache). A
# nondeterministic merge or a state field missed by a Reset fails here
# before it can corrupt a figure.
go test -count=1 -run 'TestSweepResetAndParallelDeterminism' ./internal/bench
# The same equality under a fixed fault model: impaired sweeps (jittered
# fig3b and fig7c, lossy ftbcast) must be byte-identical across fresh,
# Reset-reuse, and pool runs, fault counters included.
go test -count=1 -run 'TestImpairedSweepDeterminism' ./internal/bench
# Experiment-level concurrency in spinbench must match serial stdout.
go test -count=1 -run 'TestSerialVsConcurrentExperimentsByteIdentical' ./cmd/spinbench

echo "== golden manifest (every printed spinbench digit) =="
# cmd/spinbench/testdata/golden.sha256 pins the SHA-256 of stdout and of
# stderr and the exit code of every experiment in five modes (-csv at scale
# 1; -scale 4 with -csv, -parallel 2, -lp 2, and -impair jitter=2us,seed=7
# -csv) and of two lossy whole runs, one of which exits 1. A mismatch names
# the mode and the experiment. go test ./... runs it too (it may be cached
# there); this step reruns it, scale-1 mode included, and the cross-check
# that every key shared with benchmark/testdata/golden.sha256 carries the
# same CSV hash.
go test -count=1 -run 'TestGoldenManifest' ./cmd/spinbench

echo "== LP equivalence (conservative parallel DES vs serial) =="
# Randomized scales/seeds/impairments at -lp 2/4/7 must produce CSV and
# fault counters byte-identical to serial; the lookahead-safety property
# tests audit the conservative invariant on adversarial topologies.
go test -count=1 -run 'TestLPEquivalenceRandomized' ./internal/bench
go test -count=1 -run 'TestWindowsConservativeInvariant' ./internal/sim
go test -count=1 -run 'TestLPMatchesSerialAdversarial' ./internal/netsim

echo "== impairment-grammar fuzz smoke (FuzzParseImpairment, 5s) =="
# Short native-fuzz pass over the -impair spec parser: never panics, and
# Key() stays a canonical re-parse fixed point (the property the result
# cache keys depend on).
go test -run '^$' -fuzz 'FuzzParseImpairment' -fuzztime 5s ./internal/netsim

echo "== engine reference-oracle fuzz (FuzzEngineMatchesReference, 5s) =="
# Random schedule/reserve/nested/RunUntil/RunBefore/Reset programs must
# dispatch in exactly the order of the test-only container/heap closure
# engine — the (at, stamp, pri, seq) tie-break included. Minimizing a new
# corpus entry replays a program up to 2 KiB long thousands of times, which
# would stall a 5 s smoke, so minimization is capped at one attempt.
go test -run '^$' -fuzz 'FuzzEngineMatchesReference' -fuzztime 5s -fuzzminimizetime 1x ./internal/sim

echo "== interval-pool reference-oracle fuzz (FuzzIntervalPoolMatchesNaive, 5s) =="
# Random request streams on 1-8 servers — per-handler chains, lagging,
# leading and stale requests, and bursts of disjoint spans that push lists
# past maxSpans — must get exactly the server and start of the naive pool
# (every server scanned front to back, first minimum taken), and end with
# the same FreeAt and Busy on every server. Minimization is capped as
# above: a naive acquire scans every server.
go test -run '^$' -fuzz 'FuzzIntervalPoolMatchesNaive' -fuzztime 5s -fuzzminimizetime 1x ./internal/sim

echo "== serve request fuzz (FuzzServeRequest, 5s) =="
# Fuzzed JSON bodies and query values through parseRequest and validate,
# running no experiment: never a panic, every rejection a 400 *apiError
# (the ones validate makes name the valid values), and every accepted
# request in range with a re-parse fixed-point impairment key. Minimization
# is capped as above.
go test -run '^$' -fuzz 'FuzzServeRequest' -fuzztime 5s -fuzzminimizetime 1x ./internal/serve

echo "== assembler fuzz (FuzzAssembleRun, 5s) =="
# Arbitrary spinasm source: every program isa.Assemble accepts encodes and
# decodes back to itself and runs on a VM without panicking (a runaway
# program ends at MaxSteps with an error). Minimization is capped as above.
go test -run '^$' -fuzz 'FuzzAssembleRun' -fuzztime 5s -fuzzminimizetime 1x ./internal/isa

echo "== SPC trace fuzz (FuzzSPCParse, 5s) =="
# Arbitrary trace text: spctrace.Parse never panics, accepts only
# non-negative fields and timestamps that fit sim.Time, and Format's
# rendering of what it accepts parses back to the same ASU, LBA, size and
# direction. Minimization is capped as above.
go test -run '^$' -fuzz 'FuzzSPCParse' -fuzztime 5s -fuzzminimizetime 1x ./internal/spctrace

echo "== nested benchmark module (go vet) =="
# benchmark/ is its own module (replace repro => ../), so the root
# `go build ./...` never compiles it; vetting it here catches an exported
# name it uses being renamed or deleted.
go -C benchmark vet ./...

echo "== nested benchmark module (golden hashes) =="
# The benchmark's smoke test checks every table it regenerates against
# benchmark/testdata/golden.sha256 (fig7c through the traced nic-offload
# run), so a printed digit that drifts fails the merge, not just the next
# benchmark run.
go -C benchmark test -count=1 ./...

echo "== alloc budgets (engine schedule / transport / retransmit / Table5c / Table5cLP / Fig5a / SPC; bytes: Fig5a / SPC / Fig7c / Trees) =="
# Ceilings from BENCH_core.json: 0 allocs per schedule+dispatch, <= 7 per
# 256-packet message, 0 per lossy reliable put in steady state, the
# post-program-pooling Table 5c budget, the post-triggered-op-pooling
# Fig 5a budget, and the post-portals-pooling SPC budget; plus bytes per
# regeneration for Fig 5a, SPC, Fig 7c and the trees ablation, which fail
# if timing-only host memory goes back to being zero-filled per rank or
# per raidsim system.
go test -count=1 -run 'TestAllocBudgets' .

echo "== perf smoke (BenchmarkFig3b, 1x) =="
go test -run='^$' -bench=BenchmarkFig3b -benchtime=1x -benchmem .

echo "== fig7a wall-clock gate =="
# The vectorized datatype scatter keeps Fig 7a under 200 ms at benchScale;
# a return of the ~6 s per-segment regression fails the 2 s budget.
go test -count=1 -run 'TestFig7aWallClock' .

echo "== alloc smoke (BenchmarkClusterSendLarge, hot path) =="
go test -run='^$' -bench=BenchmarkClusterSendLarge -benchtime=100x -benchmem ./internal/netsim

echo "== spinserve smoke (serve vs CLI byte-identity + cache hit + point memo) =="
# End-to-end over a real socket with version-stamped binaries: start
# spinserve, POST a small experiment, diff the CSV byte-for-byte against
# the same build's spinbench -csv, then re-request and require a cache hit
# (X-Cache: hit) with identical bytes. A last request at another scale with
# the same points must be a cache miss the pool's point memo answers
# (points_reused >= 2), byte-identical to spinbench. Runs in every CI
# matrix job because CI runs this script.
SMOKEDIR=$(mktemp -d)
trap 'rm -rf "$SMOKEDIR"' EXIT
VERSION=$(git rev-parse --short HEAD 2>/dev/null || echo dev)
go build -ldflags "-X repro/internal/buildinfo.Version=$VERSION" -o "$SMOKEDIR/spinserve" ./cmd/spinserve
go build -ldflags "-X repro/internal/buildinfo.Version=$VERSION" -o "$SMOKEDIR/spinbench" ./cmd/spinbench
go run ./scripts/servesmoke "$SMOKEDIR/spinserve" "$SMOKEDIR/spinbench"

echo "check.sh: all green"
