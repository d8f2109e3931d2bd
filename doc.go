// Package repro is a from-scratch Go implementation of sPIN — streaming
// Processing In the Network (Hoefler, Di Girolamo, Taranov, Grant,
// Brightwell; SC'17) — together with the complete simulation substrate its
// evaluation requires.
//
// The public API lives in package repro/spin; the evaluation harness that
// regenerates every table and figure of the paper is bench_test.go in this
// directory plus cmd/spinbench. See README.md for a tour, ARCHITECTURE.md
// for the layer stack, the determinism contract, and the pooling ownership
// rules (normative — every reuse and concurrency feature is written against
// them), and the experiment registry in internal/bench/registry.go
// (`spinbench -list`) for the per-experiment index.
//
// # Performance model
//
// Every reproduced figure is a sweep over the discrete-event core, so
// simulator throughput bounds sweep resolution. The hot path is built to
// process one simulated packet with zero steady-state heap allocations:
//
//   - Event cost. The engine (internal/sim) dispatches events from an
//     adaptive calendar queue (Brown, CACM 1988) over an engine-owned node
//     slab, which retunes its bucket count and width to the queue's depth
//     and deadline spacing: one schedule+dispatch cycle is ~40 ns with
//     0 allocs/op (BenchmarkEngineSchedule), and an event costs about the
//     same at queue depth 4096 as at depth 4 (BenchmarkEngineHold). Each
//     bucket keeps an insertion finger, the node linked into it last, so
//     an event that sorts before the bucket's tail — a packet event
//     landing among a synchronized burst of others — is linked in by a
//     short walk from the finger instead of a long one from the tail. Every
//     event is scheduled with Engine.ScheduleCall, which stores a
//     pre-bound (func(any), pointer-arg) pair in the event instead of a
//     fresh closure; the engine has no closure-taking form. It returns a
//     Handle, and Engine.Cancel unlinks the event in O(1): a retry timeout
//     whose exchange finished leaves the queue at once instead of holding
//     a node until it fires for nothing.
//   - Allocation budget. The transport (internal/netsim) injects a
//     message's packets as a single walking event chain and draws Packet,
//     walk, and per-message state (core.msgState, the one receive state
//     of every put) objects from free lists; receivers keep that state in
//     the message's own RecvState slot, not in maps keyed by *Message, so
//     a packet finds its message's state with one type check. This comes
//     to ~0.03 allocations per simulated packet end to end
//     (BenchmarkClusterSendLarge: 7 allocs per 256-packet message).
//     Receivers must not retain a *Packet past ReceivePacket.
//   - Tracing. timeline.Recorder label formatting is gated on
//     Recorder.Enabled() at every hot call site, so disabled recording
//     (the benchmark default) formats and allocates nothing — pinned by
//     testing.AllocsPerRun tests.
//   - Determinism invariants. All free lists are engine-owned, not
//     sync.Pool: the engine is single-threaded and reuse order must be
//     reproducible. Every per-record pool is a sim.FreeList, a LIFO slice
//     whose Put zeroes the record, so recycling has one zeroing rule
//     everywhere. Deferred packet events claim their tie-break positions
//     via Engine.ReserveSeq at Send time, so the event order — and every
//     simulated-time output — is bit-identical to eager per-packet
//     scheduling (verified against the PR-0 engine in BENCH_core.json).
//   - Setup reuse. With the per-event path allocation-free, sweeps became
//     setup-dominated (a fresh 325-node cluster per measurement point).
//     netsim.Cluster.Reset returns a cluster's transport to its
//     post-construction state — engine clock/queue/sequence, every
//     resource's busy-until timeline, free lists kept, timeline recorder
//     cleared — and bench.Env then resets the cluster's Portals NIs (and
//     through them the sPIN runtimes) in node order, so one cluster per
//     configuration serves a whole sweep (bench.Env caches them; the full
//     Fig 3b sweep dropped from 647k to 12.5k allocations, 52x).
//     Reset is simulation-equivalent to reconstruction because every input
//     to the event order (clock, (time, seq) tie-breaks, busy-until
//     trajectories) restarts exactly as construction leaves it; pooled-
//     object and map-bucket reuse changes only allocation behaviour.
//   - Replay-engine reuse. The two trace-replay engines follow the same
//     contract: mpisim.Engine.Reset rebinds an engine to a new program set
//     on the same cluster (protocol maps cleared in place; every request,
//     arrival, and wire message drawn from engine-owned free lists — never
//     sync.Pool), and raidsim.System.Reset re-arms the RAID service with
//     its portal tables, MEs, and handler scratchpad intact
//     (netsim.Cluster.Reset + portals.NI.ResetInFlight). bench.Env
//     caches both, which took a Table 5c regeneration from 6.54M to 439k
//     allocations (14.9x). Reset == fresh is pinned bit-exactly by
//     engine-, system-, and sweep-level golden tests.
//   - Portals-layer pooling. The per-request protocol path allocates
//     nothing in steady state: wire messages come from a cluster-owned free
//     list (netsim.Cluster.AllocMessage) and are recycled by the transport
//     itself once their last packet retires (dispatched, dropped, or
//     discarded); payload staging reuses a message-owned grow-only buffer
//     (Message.SetPayload, which stages nothing for a message without
//     data); pendingOps, handler contexts (with a
//     Ctx.Scratch arena), and EQ dispatches are pooled; CT triggers are
//     stored by value; and the remaining hot-path closures were replaced
//     by pre-bound func(any)+arg pairs
//     (Message.Delivered, CT.OnReachCall) that go straight onto the engine
//     with ScheduleCall, the engine's one callback shape. The SPC trace
//     study — pure per-request protocol work — dropped from ~155k to ~2.9k
//     allocations (54x). The retention rules that make transport-owned
//     recycling safe are normative in ARCHITECTURE.md.
//   - Vectorized datatype scatter. The Fig 7a payload handler touches
//     every 16-byte block of each packet; materializing a []Segment per
//     packet and paying a front-to-back interval scan per block made fig7a
//     the slowest experiment (~6 s) while allocating per packet.
//     datatype.Type now exposes an allocation-free visitor (ForEachSegment)
//     with closed-form SegmentCount/SegmentStats for Vector, and
//     core.Ctx.DMAToHostVec issues the whole scatter as one descriptor
//     chain. The chain charges exactly what a block-at-a-time DMAToHostB
//     loop charges — per-block arithmetic, per-descriptor issue cost, one
//     bus reservation per transaction — so simulated time is
//     bit-identical by construction (FuzzDMAToHostVecMatchesLoop checks it
//     against that loop); only the simulator-side work went away. The complementary sim.Intervals fast paths (a galloping
//     scan-start search from a finger at the previous answer, and a
//     max-gap upper bound for tail placement) and IntervalPool.AcquireAny's
//     early exit at the first server free at the requested time return
//     exactly what the naive first-fit scan over every server returns. On
//     fig7a's 16-byte point every AcquireAny finds a server free at the
//     requested time (server 0 in three calls of four), so the exit cuts
//     placements from 5 per call to 1.25; the answer sits at the tail in
//     only 56.7% of the remaining searches but within 2 spans of the
//     previous answer in 99.3%, so the finger probes 1.6 spans per search
//     where a gallop back from the tail probed 6.7. Together: fig7a ~60x
//     wall-clock, 0 allocs per scatter (BenchmarkVectorScatter), every
//     printed digit unchanged.
//   - Closure-free triggered operations. NI.ArmTriggeredPut/ArmTriggeredGet
//     store each armed operation in a pooled triggeredOp record scheduled
//     through CT.OnReachCall, and validate its arguments at arm time by the
//     same checks the device path runs, so an operation that could never
//     fire is an error at the arm call, not a panic inside the event loop.
//     Matching entries embed
//     their core.MEContext by value and serve its upcalls through the
//     core.MEOwner interface — no per-append context or callback closures —
//     NB DMA handles became stack values, and portal-table entries, EQs,
//     and CTs handed out by NI.NewEQ/NewCT recycle on NI.Reset. With the
//     bench-side arenas (matching entries, binomial child lists, deposit
//     regions on bench.Env), a Fig 5a regeneration fell from ~321k to
//     ~108k allocations. Timing-only host regions (portals.ME.Length;
//     core.Region owns both region forms and their one bounds rule) hold
//     no bytes, so no regeneration allocates or zero-fills host
//     memory it only times, and a handler forwards or writes a packet
//     without data as a length (Ctx.PutFromDevice, DMAToHostB and
//     DMAToHostNB take one), so nothing stages zero stand-ins for it:
//     bytes allocated per regeneration at benchScale fell from 150.8 to
//     12.3 MB for Fig 5a, 18.3 to 1.56 MB for Fig 7a, 50.3 to 5.8 MB for
//     SPC, 42.6 to 0.32 MB for Fig 7c and 38.8 to 3.0 MB for the trees
//     ablation.
//   - Pooled, periodic program sets. Table 5c rebuilt every rank program
//     per calibration probe and per replay. apps.App.ProgramsInto builds
//     into a caller-owned grow-only mpisim.ProgramBuffer cached on
//     bench.Env (contents identical to a fresh build; zero allocations
//     once warm), and apps.neighbor computes halo partners without
//     materializing coordinate vectors — together a Table 5c regeneration
//     fell from ~439k to ~74k allocations. Each rank's program stores one
//     halo iteration and a trailing mpisim.OpRepeat that replays it once
//     per iteration, adding a tag stride per pass, so a program set no
//     longer grows with the iteration count: bytes allocated per Table 5c
//     regeneration at benchScale fell from 24.4 to 9.4 MB.
//   - Parallel sweeps. The engine stays single-threaded by design, so
//     bench.Sweep parallelizes across measurement points instead: with
//     RunOptions.Pool set, every point queues as a task on a persistent
//     bench.Pool of N workers, each owning a long-lived Env (engines and
//     clusters), and rows merge back in point order, making the output
//     byte-identical for every worker count. cmd/spinbench additionally
//     runs independent experiments concurrently with per-experiment output
//     buffering, preserving the serial byte stream — both levels pinned by
//     golden tests that `make check` runs, and exposed as
//     `spinbench -parallel`. The two levels share the one pool, so a wide
//     run executes at most N points instead of composing to N^2; queuing
//     order never reaches output order (points are hermetic and rows merge
//     in registration order), so output bytes are unaffected.
//   - Conservative parallel DES. Where parallel sweeps shard independent
//     measurement points, `spinbench -lp K` parallelizes a single
//     simulation: netsim.NewClusterLP partitions the node slice into K
//     contiguous shards, each owning a private engine, and sim.Windows
//     advances them in conservative synchronous windows whose lookahead is
//     the minimum cross-partition link latency (cross-shard sends migrate
//     at the window barrier; a walk-level priority key makes tie-breaking
//     independent of which engine an event lives on). Output is
//     byte-identical to serial at every K — pinned by a randomized
//     equivalence suite — so partitioning buys wall-clock only, and only
//     from shards running concurrently within each window on real cores.
//     Splitting the queue gains nothing by itself, since the calendar
//     queue's per-event cost barely grows with depth: on 2 cores Table 5c
//     runs ~1.2x slower at -lp 2 than serially (BENCH_core.json pr14). The
//     normative contract (partitioning, lookahead, the flush-time
//     violation panic, the pri key, pooling across the seam) is
//     ARCHITECTURE.md "Parallel DES".
//   - Served experiments. internal/serve + cmd/spinserve run the registry
//     as a long-running HTTP service on the same pool, with a
//     content-addressed result cache keyed by (experiment, canonical
//     params, code version) — determinism makes every result infinitely
//     cacheable, so repeat requests are byte-identical cache hits and
//     identical in-flight requests coalesce onto one computation. A hit is
//     one map lookup keyed by the canonical request; the content address
//     is computed once, when a result is stored, and a warm hit allocates
//     nothing in the service's own code. Below
//     it, bench.Pool remembers each finished point's row and fault delta
//     under (experiment, Sweep.Row key, impairment), at most 4096 of them,
//     so a request at a new scale simulates only the points no earlier
//     request ran; in a serve-mix round the memo answers every fig7a
//     burst point and about 91% of the cold-miss points.
//
// BENCH_core.json records the measured trajectory (with the enforced
// allocation budgets); scripts/check.sh (or `make check`) runs tier-1 plus
// the determinism, alloc-budget, perf, and spinserve gates in one command,
// and the CI workflow (.github/workflows/ci.yml) runs exactly that plus a
// race job on every push and pull request.
package repro
