// Package repro is a from-scratch Go reproduction of "SMARTS:
// Accelerating Microarchitecture Simulation via Rigorous Statistical
// Sampling" (Wunderlich, Wenisch, Falsafi, Hoe — ISCA 2003).
//
// # Quickstart: the sim package
//
// The supported API is the top-level sim package — a context-aware,
// session-based front door covering every kind of sampling run:
//
//	sess, err := sim.Open(sim.WithStore(dir))   // long-lived session
//	if err != nil { ... }
//	defer sess.Close()
//
//	rep, err := sess.Run(ctx, sim.NewRequest("gccx",
//		sim.Length(4_000_000),
//		sim.Units(400),
//	))
//	fmt.Println("CPI:", rep.CPI)                // estimate ± CI
//
// One request type reaches plain sampled runs, multi-offset phase
// runs (sim.Phases), the paper's two-step estimation procedure
// (sim.Calibrate), and the experiment registry (sim.NewExperiment).
// Every path honors context cancellation and deadlines; sessions
// deduplicate concurrent functional sweeps for the same checkpoint
// key (singleflight) and emit typed progress events (sim.OnProgress).
// Underneath, every path calls the same internal/smarts entry points:
// Run, RunPhases, and RunProcedureWith.
//
// # Architecture
//
// The mechanism layers live under internal/: the SMARTS sampling
// framework (internal/smarts), the detailed out-of-order superscalar
// substrate (internal/uarch with internal/cache, internal/bpred,
// internal/energy), the functional simulator and synthetic
// SPEC2K-archetype workload suite (internal/functional,
// internal/program), the statistics machinery (internal/stats), and
// the SimPoint baseline (internal/simpoint).
//
// The warming mode picks the executor, and internal/smarts is the one
// place that chooses. Functional warming — the paper's recommendation,
// the default, and the only mode the fleet, the CLIs' defaults, and
// the benchmarks exercise at scale — runs on the checkpointed parallel
// engine: internal/checkpoint captures a launch snapshot per sampling
// unit (architectural state, copy-on-write memory image, functionally
// warmed cache/TLB/predictor tables) in one functional sweep, and
// internal/engine replays the units across a worker pool with
// deterministic stream-order aggregation — the same estimate, bit for
// bit, at any worker count. No warming and detailed warming run on the
// in-place serial loop, where each unit sees the stale state the
// previous unit left behind; that is the paper's Section 4.3 semantics,
// which a cold snapshot launch would not reproduce. Under functional
// warming the two executors agree to within the in-order update gap
// the paper treats as residual bias (measured across the suite by
// internal/smarts TestEngineMatchesLoop), and the loop remains the
// reference the engine is tested against.
//
// The engine is a streaming pipeline: the sweep hands each snapshot to
// the workers the moment it is captured, so wall clock approaches
// max(sweep, replay/workers) rather than their sum. Sweeps are
// persisted to an on-disk checkpoint store (sim.WithStore, the CLIs'
// -ckpt-dir) keyed by workload, plan, and warm-relevant machine
// geometry, so one functional sweep is shared across runs, across
// machine configs that differ only in timing, width, or energy
// parameters, and across concurrent requests (the session's
// singleflight). One sweep can also capture several systematic phase
// offsets at once (sim.Phases), which the bias experiments use to pay
// one sweep for all phases. Storeless sessions park completed sweeps
// in a session-scoped in-memory cache, so they get the same reuse.
// Snapshots are delta-encoded end to end under one shared
// snapshot/delta-chain contract (internal/delta): dirty-block deltas
// for the warmed structures, dirty-page deltas for memory, periodic
// keyframes (sim.WithKeyframe, the CLIs' -keyframe) bounding
// reconstruction chains, in memory and in the store's v4 format alike.
// The store reads only its current format: an entry of any other
// version is a miss that costs one re-sweep. Every variant — streamed,
// captured first, store-loaded, multi-offset, cancelled-and-rerun —
// produces bit-identical estimates.
//
// # Parallel sweeps and warming bias
//
// The functional sweep itself is the one phase that does not scale
// with workers — functional warming walks the whole dynamic stream in
// order. Two mechanisms attack it. First, the functional interpreter
// runs a pre-decoded fast path: instructions are decoded once into a
// dense side table and the sweep executes from it in a batch loop
// (internal/functional RunDyn, internal/uarch Warmer.ForwardBatch),
// roughly halving sweep cost per instruction with zero allocations on
// the hot path. Second, the sweep can be split into N concurrent
// stream segments (sim.WithSweepParallelism, the CLIs' -sweep-parallel;
// 0 = serial, bit-identical to previous releases): a cheap arch-only
// pioneer pass hands each segment its exact starting architectural
// state and memory image, the segments sweep concurrently, and the
// per-segment unit streams are stitched back in stream order.
//
// Speculative segments trade a measured accuracy cost for that
// speedup: architectural state and memory stay bit-exact (warming
// never alters them), but a segment's caches and predictors start cold
// at its start position — the paper's detailed-warming scenario, whose
// bias Table 5 quantifies. Each segment therefore warms (and discards)
// an overlap of instructions before its first captured unit
// (sim.WithSweepOverlap, -sweep-overlap; default
// checkpoint.DefaultSweepOverlap = 1M instructions, the measured warm
// transient of the full-scale cache hierarchy). The bias-vs-stride
// experiment ("stride" in the experiment registry) measures what
// remains: at the default overlap the worst per-benchmark CPI bias of
// a 4-way parallel sweep stays under 2% (measured ~0.04% at the small
// scale, versus >20% with a 100k overlap — see
// experiments.ParallelSweepBiasThreshold and its test), and on streams
// shorter than the overlap the segment starts clamp to zero, so short
// sweeps degenerate to exact serial behavior, losing speedup but never
// accuracy. Warmed parallel sweeps key separately in the checkpoint
// store (cold-start warm state must not alias a serial sweep's);
// unwarmed captures are bit-identical to serial at any parallelism and
// share the serial key. Journaled sweep resume stays a serial-sweep
// feature: parallelism and Resume are mutually exclusive by
// validation.
//
// Sweeps are also crash-safe: with a store attached, the entry an
// in-progress sweep stages is its journal — sealed under a resume frame
// every few keyframes and published as a *.partial file (invisible to
// the committed index) that becomes the *.ckpt entry when the sweep
// completes — and a rerun of the same request resumes from the
// journal's last frame instead of resweeping (sim.WithResumeInterval,
// the CLIs' -resume-interval). The resumed unit stream is bit-identical
// to an uninterrupted sweep, and a corrupt journal degrades to a cold
// sweep — never a wrong result.
//
// # Distributed sampling
//
// internal/dist scales the same runs across machines: a coordinator
// (cmd/simd coordinator) splits a run's sampled units into contiguous
// shard ranges, a worker fleet (cmd/simd worker) replays them through
// the same engine, and a stream-order merge reproduces the
// single-machine report bit for bit at any (machine × worker) count —
// including confidence-targeted early termination, worker failure with
// shard reassignment, and run cancellation. The fleet shares one
// functional sweep per checkpoint key through a claim protocol (the
// session singleflight, fleet-wide) backed by the coordinator's sweep
// cache and optional on-disk store; the format-v3 store codec doubles
// as the wire encoding. The fleet is fault-tolerant end to end: sweep
// owners journal partial progress to the coordinator and renew their
// claim lease, so a worker killed mid-sweep hands the sweep to a peer
// that resumes from the journal; RPCs retry with backoff and jitter;
// workers heartbeat for liveness; and dist.Client — which has the same
// Run(ctx, *Request) shape as sim.Session, so callers swap local for
// distributed execution with one constructor (examples/distributed) —
// can degrade to a bit-identical in-process run when the coordinator
// is unreachable.
//
// The coordinator itself is crash-safe: accepted runs are journaled
// (write-ahead) under the checkpoint store, runs get stable IDs, and
// clients re-attach to a restarted coordinator's recovered runs from
// their last received event. The failure model, end to end:
//
//	what dies                what happens                     what is re-done
//	worker mid-shard         shard suffix requeued to peers   nothing (contiguous prefix kept)
//	sweep owner mid-sweep    lease expires; peer resumes      sweep since last journaled keyframe
//	coordinator mid-run      restart replays run journal      unmerged shard suffixes only
//	client's connection      client re-attaches by run ID     nothing (stream resumes from last event)
//	a bit, anywhere          CRC-32C digest catches it        corrupt frame's shard suffix, on another worker
//	everything at once       journals on disk are the truth   the unjournaled tail, never the whole run
//
// In every row the final report stays bit-identical to an
// uninterrupted local run, and sealed checkpoints (store format v4's
// record and frame checksums, scrubbed offline by simd fsck) make
// silent corruption detectable rather than absorbable.
//
// # Project invariants and how simlint enforces them
//
// The guarantees above are load-bearing — "bit-identical at any
// worker count" and "0 allocs/inst on the sweep hot loops" are easy to
// break with one innocent-looking line. cmd/simlint is an in-repo,
// stdlib-only static analyzer suite (go/ast + go/types, no external
// dependencies) that CI runs between vet and build; it exits nonzero
// on any violation, printing file:line: diagnostics. The invariants it
// enforces:
//
//   - determinism: packages whose outputs must be bit-identical
//     (internal/smarts, checkpoint, engine, dist, stats, delta, and the
//     simulated core) must not let map iteration order, wall-clock
//     reads, or the global math/rand stream shape results. Map
//     iteration that appends into a result is flagged unless the
//     result is sorted afterward; time.Now is flagged unless routed
//     through internal/wallclock, the documented allowlist for
//     telemetry (elapsed-time reporting) and liveness (leases,
//     heartbeats, backoff) — readings that are reported but never fold
//     into an estimate.
//   - hotpath: functions annotated //simlint:hotpath (the per-
//     instruction sweep and replay paths: mem/cache/TLB/bpred accesses,
//     functional Step, delta Mark) must be allocation- and
//     dispatch-free — no make/new/append/closures/defer/interface
//     boxing/fmt — and may only call other hot-path functions or
//     declared //simlint:coldpath <reason> rare paths.
//   - ctx: exported blocking APIs in the service layers (sim, engine,
//     checkpoint, dist) take a context.Context first, don't bury it in
//     structs, and long loops with I/O or RPC calls stay
//     cancellation-aware (ctx check, select, or channel receive).
//   - storekey: structs annotated //simlint:keystruct <HashFunc> (the
//     checkpoint Key/Params and the warm-relevant cache/bpred/uarch
//     geometry) must have every field either referenced by the named
//     key-hash function or annotated //simlint:nonkey <reason> — so
//     adding a config knob without folding it into the store key (a
//     silent cache-aliasing bug) fails CI.
//   - errwrap: fmt.Errorf uses %w (not %v) for error operands so
//     errors.Is/As keep matching, and the checkpoint store/journal and
//     dist layers never discard an error with _ undocumented.
//
// Suppressions are never bare: //simlint:coldpath, ordered, noctx,
// nonkey, and discard all require a reason string, and a directive
// meta-analyzer rejects unknown verbs and missing reasons. The suite
// lives in internal/lint with a seeded-violation test module under
// internal/lint/testdata; run it locally with
//
//	go run ./cmd/simlint ./...
//
// Executables are under cmd/ (their shared flags live in
// sim/simflag), runnable examples under examples/ (examples/service
// shows the concurrent session usage, examples/distributed the
// loopback fleet), and the benchmarks in
// bench_test.go regenerate every table and figure of the paper's
// evaluation.
package repro
