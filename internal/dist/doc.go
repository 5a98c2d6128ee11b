// Package dist turns the sampling service into a distributed one: a
// coordinator shards a sim.Request's sampled units into contiguous
// ranges, dispatches them to workers over HTTP/JSON (stdlib only), and
// folds the shard streams through engine.Fold, the deterministic
// stream-order aggregation a single machine uses — so the final report
// is bit-identical to a local engine run at any (machine × worker)
// count, including under confidence-targeted early termination.
//
// # Why sharding is free
//
// SMARTS sampling units are statistically independent, and the
// checkpointed engine (internal/engine) makes them computationally
// independent too: each unit's measurement is a pure function of its
// captured launch snapshot. A shard therefore needs nothing from its
// neighbors — only the shared snapshot Set and its [lo, hi) range of
// stream positions, which engine.ReplayRange replays — and the merge is
// a pure reordering problem. The coordinator converts each streamed
// unit back to an engine.RangeUnit and offers it to an engine.Fold,
// the same fold the local worker pool feeds. The fold keys every rule
// by stream index, never by arrival order, so worker death, retries,
// and scheduling cannot perturb the estimate.
//
// # Protocol
//
// The coordinator serves:
//
//	POST /v1/runs            serialized request in; replies 202 with the
//	                         run's stable ID and the coordinator epoch.
//	                         The run executes asynchronously — its
//	                         lifetime is the coordinator's, not the
//	                         connection's.
//	GET  /v1/runs/{id}/stream?from=N&epoch=E
//	                         NDJSON envelope stream out: every event
//	                         carries a sequence number, and ?from=N
//	                         resumes after the last envelope the client
//	                         received — progress events, then the final
//	                         report (or an error) as the last record.
//	DELETE /v1/runs/{id}     cancel the run.
//	POST /v1/register        worker announces its base URL and optional
//	                         heartbeat interval.
//	POST /v1/heartbeat       worker liveness beat; a worker that
//	                         announced an interval and then stays silent
//	                         for three intervals leaves the dispatch set
//	                         until it beats again.
//	POST /v1/claims          fleet-wide sweep singleflight (see below).
//	GET  /v1/sweeps/{hash}   fetch a captured sweep, encoded in the
//	                         checkpoint store's byte format.
//	PUT  /v1/sweeps/{hash}   upload a freshly captured sweep.
//	GET  /v1/partials/{hash} fetch the sweep's current partial journal
//	                         (404 = sweep cold).
//	PUT  /v1/partials/{hash} upload a sweep owner's partial journal
//	                         (the store's partial record format;
//	                         validated against the run's key, rejected
//	                         if corrupt).
//	GET  /v1/healthz         readiness.
//
// Workers serve:
//
//	POST /v1/shards        shard assignment in, NDJSON record stream
//	                       out: sweep-progress records while capturing,
//	                       one record per replayed unit in ascending
//	                       stream order, then a trailer with the sweep
//	                       accounting (or an error record).
//	GET  /v1/healthz       readiness.
//
// Sweeps travel in the exact bytes Store.Save writes to disk
// (checkpoint.EncodeSet/DecodeSet), so the wire format is the store
// format and decoding validates the content-addressed key end to end.
// Both sides resolve the plan independently with sim.ResolvePlan and
// derive the same checkpoint.Key, so only the request travels — never
// the plan, the program, or unit indices.
//
// # Fleet-wide sweep singleflight
//
// The functional sweep is the one sequential, whole-stream cost; it
// must be paid once per (workload, plan, warm geometry) key across the
// fleet, not once per shard. Before sweeping, a worker claims the key
// at the coordinator: the reply is "ready" (a sweep is cached or
// stored — fetch it), "owner" (you sweep; upload when done), or "wait"
// (another worker is sweeping — poll). Claims carry a lease: the owner
// renews it by re-claiming every LeaseTTL/3 while it sweeps, so if the
// owner dies mid-sweep the claim expires after LeaseTTL and the next
// poller takes ownership. The uploaded sweep lands in the
// coordinator's checkpoint.SweepCache — its bounded memory tier and,
// unless the request opts out (NoStore), its on-disk store — so later
// runs skip the sweep entirely.
//
// # Crash-safe sweeps
//
// A sweep owner journals its progress: it writes the sweep once, into
// an in-memory checkpoint.SetWriter — the same byte stream a local
// store-backed sweep stages as its entry and journal — and at the first
// unit and then every ResumeInterval keyframes uploads the bytes written
// so far, each upload a prefix of the next. The coordinator validates
// an upload and keeps it as uploaded, in memory and, with a store
// attached, as the *.partial file that survives coordinator restarts.
// The sealed stream, frames included, is the owner's /v1/sweeps upload. A worker that wins the
// claim after the owner died fetches the journal and resumes the sweep
// from its last keyframe (checkpoint Params.Resume) instead of
// restarting at instruction zero; the continued unit stream is
// bit-identical to an uninterrupted sweep. Corruption never poisons a
// run: a journal that fails validation is rejected at upload, and one
// that fails resume-replay on the worker degrades to a cold sweep. The
// journal is deleted when the completed sweep arrives.
//
// # Failure and retry
//
// A worker that dies mid-shard is marked dead and its range is
// requeued for the surviving workers. Workers stream units in
// ascending stream order, so the received prefix of a broken stream is
// contiguous; the requeued range resumes exactly after it, and every
// stream position is still offered to the aggregator exactly once.
// Errors the simulation itself reports (as opposed to transport
// failure) abort the run — they are deterministic and would fail on
// any worker. If every worker dies, the run fails with an error
// rather than hanging.
//
// Worker→coordinator RPCs (register, claim, sweep and journal
// transfer) retry transient failures with capped exponential backoff
// plus deterministic jitter; each retried attempt surfaces to the run
// as a sim.EventRetry progress event naming the operation and attempt.
// dist.Client retries its initial run request the same way and, when a
// Fallback session is configured, degrades to an in-process run (after
// a sim.EventFallback event) if the coordinator stays unreachable —
// bit-identical by construction, since local and distributed runs
// share the engine. Deterministic rejections (4xx) neither retry nor
// fall back.
//
// The crash/resume matrix is tested through a deterministic
// fault-injection harness (Faults): kill-the-owner-mid-sweep,
// kill-mid-stream, kill-the-coordinator, corrupt-frame, drop/delay
// RPC, and expire-lease trigger at exact occurrence counts, so lease
// handoff, journaled resume, coordinator recovery, and quarantine run
// as ordinary unit tests instead of wall-clock races.
//
// # Surviving the coordinator
//
// With a store attached, the coordinator is no longer a single point
// of run loss. Every accepted run writes a write-ahead journal
// (runs/<id>.runj under the store directory, installed by atomic
// temp+rename): the serialized request, the resolved spec (so recovery
// never re-resolves against drifted defaults), the exact shard split,
// then one checksummed line per merged unit and per completed shard
// trailer, flushed as they land. A restarted coordinator replays each
// journal's longest valid prefix: merged units are re-offered to a
// fresh engine.Fold (offer order is irrelevant — the fold is a pure
// function of the offered set), finished shards are absorbed from
// their trailers, and each surviving shard is requeued from the first
// stream position after its journaled contiguous prefix. Exactly-once
// offer semantics hold across the crash: a journaled unit is never
// re-dispatched, an unjournaled one is never skipped, and the final
// report is bit-identical to an uninterrupted run. The journal is
// removed before the terminal event is published, so a finished run
// can never be resurrected.
//
// A run's lifecycle through a crash, client-side: POST /v1/runs
// returns {ID, Epoch}; the client follows GET /v1/runs/{id}/stream.
// When the coordinator dies the stream breaks; the client re-attaches
// with backoff (surfacing each attempt as a sim.EventReattach progress
// event), presenting its last received sequence number and the old
// epoch. The restarted coordinator has a new epoch, so the sequence
// numbers do not line up — it streams the recovered run from zero, and
// the terminal record is still delivered exactly once, because only
// the terminal record decides the run. Re-attach never degrades to a
// local rerun: once the coordinator accepted the run it may still be
// executing, and a silent local redo could double the work. Only run
// creation falls back (dist.Client.Fallback); a 404 on attach means
// the run is truly lost (no store, or terminal before the journal
// existed) and surfaces as a permanent error.
//
// Recovery state machine, coordinator-side:
//
//	accepted   → journal header written; run registered; waits for a
//	             MaxActive slot (queue rules unchanged).
//	running    → shard split journaled, then one line per merged unit
//	             (journal before offer: write-ahead), one per trailer.
//	crashed    → whatever the kernel kept of the journal is the truth.
//	recovered  → journal compacted to its verified prefix, spec rebuilt
//	             from the header, merged prefix re-offered, shard
//	             suffixes requeued; waits for workers to re-register
//	             (heartbeats 404 on the new incarnation, so live
//	             workers come back within a poll interval).
//	terminal   → journal removed, then the report/error envelope is
//	             published and the run's event history is pruned to it.
//
// # End-to-end result integrity
//
// Every measurement crosses the wire sealed: workers stamp each unit
// record with a CRC-32C digest over its measurement fields, the
// coordinator verifies the digest before the unit may enter the merge
// or the journal, and the journal loader re-verifies it at recovery —
// so a flipped bit in transit, in memory, or on disk cannot silently
// perturb the estimate. A digest mismatch quarantines the worker
// (sticky: heartbeats do not un-quarantine it; sim.EventQuarantine
// surfaces the eviction), requeues the shard's unverified suffix to
// the surviving workers, and the run completes bit-identical. The
// checkpoint store applies the same discipline to sweeps at rest:
// format v4 seals every record and partial frame with CRC-32C, and
// checkpoint.Store.Verify (the simd fsck subcommand) scrubs a store
// offline.
//
// # Early termination and admission
//
// The coordinator's engine.Fold folds in-order prefixes as shard
// streams arrive; when the target confidence interval is met it fixes
// the same cutoff a local run would, and the coordinator broadcasts a
// stop by cancelling all in-flight shard requests. Admission control bounds
// concurrent runs (MaxActive) with a bounded wait queue (MaxQueue)
// honoring context deadlines; beyond both, runs fail fast with
// ErrBusy.
package dist
