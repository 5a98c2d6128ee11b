package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/program"
	"repro/internal/uarch"
)

// WorkerOptions configures a Worker.
type WorkerOptions struct {
	// Coordinator is the coordinator's base URL (required).
	Coordinator string
	// Self is this worker's advertised base URL — the address the
	// coordinator dispatches shards to (required for Register) and the
	// worker's identity in the sweep claim table.
	Self string
	// Workers is the replay worker-pool size per shard (<= 0: one per
	// core). Purely a throughput knob; results are bit-identical at any
	// value.
	Workers int
	// MemCacheBytes caps the worker's local sweep cache (0 = unbounded).
	// Shards of one run hit this cache after the first fetch.
	MemCacheBytes int64
	// PollInterval is the wait between sweep-claim polls while another
	// worker sweeps (default 50ms).
	PollInterval time.Duration
	// Heartbeat, when positive, is the liveness heartbeat interval
	// announced at registration and driven by Worker.Heartbeat; the
	// coordinator stops dispatching to a worker silent for three
	// intervals. 0 disables heartbeats (the worker is never expired for
	// silence).
	Heartbeat time.Duration
	// Keyframe overrides the snapshot keyframe interval for sweeps this
	// worker runs (0 = checkpoint.DefaultKeyframe). Encoding-only, like
	// sim.WithKeyframe: excluded from the sweep key and from
	// bit-identity.
	Keyframe int
	// ResumeInterval is the sweep-journal upload cadence in keyframes
	// while this worker owns a sweep: the sweep is written once into an
	// in-memory checkpoint.SetWriter, and at its first unit and then
	// every n-th keyframe the worker uploads the bytes written so far to
	// the coordinator, bounding the work lost if it dies mid-sweep (the
	// next claim winner resumes from the journal). 0 selects
	// checkpoint.DefaultResumeInterval; negative disables journal
	// uploads.
	ResumeInterval int
	// Retries, RetryBase and RetryMax shape the capped exponential
	// backoff (with jitter) on coordinator RPCs — register, claim,
	// sweep and journal transfer. Zero values select the defaults:
	// 4 attempts, 50ms base, 2s cap.
	Retries             int
	RetryBase, RetryMax time.Duration
	// Faults, when non-nil, arms the deterministic fault-injection
	// harness on this worker's hooks (kill-mid-sweep, kill-mid-stream,
	// drop/delay RPC). Testing only.
	Faults *Faults
	// Logf receives operational log lines (nil discards them).
	Logf func(format string, args ...any)
}

// Worker executes shard ranges for a coordinator: it materializes the
// run's snapshot set (fetching it, or sweeping as the fleet
// singleflight's owner), replays its assigned range through the
// engine, and streams per-unit results back in stream order. All
// methods are safe for concurrent use; concurrent shards of one run
// share the cached set.
type Worker struct {
	opt       WorkerOptions
	policy    retryPolicy
	client    *http.Client
	cache     *checkpoint.SweepCache // memory tier only
	sweeps    atomic.Uint64
	sweepExec atomic.Uint64
	replayed  atomic.Uint64

	progs program.Cache
}

// NewWorker builds a worker.
func NewWorker(opt WorkerOptions) *Worker {
	if opt.PollInterval <= 0 {
		opt.PollInterval = 50 * time.Millisecond
	}
	return &Worker{
		opt:    opt,
		policy: retryPolicy{Attempts: opt.Retries, Base: opt.RetryBase, Max: opt.RetryMax}.withDefaults(),
		client: faultClient(opt.Faults),
		cache:  checkpoint.NewSweepCache(opt.MemCacheBytes, nil),
	}
}

func (w *Worker) logf(format string, args ...any) {
	if w.opt.Logf != nil {
		w.opt.Logf(format, args...)
	}
}

// SweepCount returns how many functional sweeps this worker has run
// itself (fleet singleflight should keep the fleet-wide sum at one per
// key).
func (w *Worker) SweepCount() uint64 { return w.sweeps.Load() }

// SweepExecInsts returns the functional-warming instructions this
// worker actually executed while sweeping, counted as the sweep runs —
// journaled prefixes resumed from the fleet are excluded, and a sweep
// killed mid-flight still counts what it burned — so the fleet-wide
// sum bounds the sweep work duplicated across a crash/handoff.
func (w *Worker) SweepExecInsts() uint64 { return w.sweepExec.Load() }

// ReplayedUnits returns how many units this worker has replayed across
// all shards. Summed over the fleet it bounds the replay work of a
// run: after a coordinator crash/recovery, the fleet-wide sum must not
// exceed the run's unit count by more than the unjournaled suffix.
func (w *Worker) ReplayedUnits() uint64 { return w.replayed.Load() }

// httpRetryable classifies an HTTP status as transient (worth a
// backoff retry) or deterministic.
func httpRetryable(code int) bool {
	return code == http.StatusTooManyRequests || code >= 500
}

// Register announces the worker to its coordinator, retrying transient
// failures with capped exponential backoff.
func (w *Worker) Register(ctx context.Context) error {
	return retry(ctx, w.policy, func(attempt int, err error) {
		w.logf("dist: register with %s failed (attempt %d): %v; retrying", w.opt.Coordinator, attempt, err)
	}, func() error {
		return w.registerOnce(ctx)
	})
}

func (w *Worker) registerOnce(ctx context.Context) error {
	body, err := json.Marshal(registerMsg{URL: w.opt.Self, IntervalNs: int64(w.opt.Heartbeat)})
	if err != nil {
		return permanent(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.opt.Coordinator+"/v1/register", bytes.NewReader(body))
	if err != nil {
		return permanent(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		err := fmt.Errorf("dist: register with %s: %s", w.opt.Coordinator, resp.Status)
		if !httpRetryable(resp.StatusCode) {
			return permanent(err)
		}
		return err
	}
	return nil
}

// Heartbeat beats the coordinator every WorkerOptions.Heartbeat until
// ctx ends, keeping this worker live in the dispatch set. It returns
// immediately when no heartbeat interval is configured. A beat the
// coordinator rejects as unknown (its restart lost the registration)
// re-registers.
func (w *Worker) Heartbeat(ctx context.Context) {
	if w.opt.Heartbeat <= 0 {
		return
	}
	t := time.NewTicker(w.opt.Heartbeat)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if err := w.beatOnce(ctx); err != nil && ctx.Err() == nil {
			w.logf("dist: heartbeat: %v", err)
		}
	}
}

func (w *Worker) beatOnce(ctx context.Context) error {
	body, err := json.Marshal(heartbeatMsg{URL: w.opt.Self})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.opt.Coordinator+"/v1/heartbeat", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return w.Register(ctx)
	}
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		return fmt.Errorf("heartbeat with %s: %s", w.opt.Coordinator, resp.Status)
	}
	return nil
}

// Handler returns the worker's HTTP API.
func (w *Worker) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/healthz", func(rw http.ResponseWriter, _ *http.Request) {
		rw.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST /v1/shards", w.handleShard)
	return mux
}

func (w *Worker) handleShard(rw http.ResponseWriter, req *http.Request) {
	var msg shardMsg
	if err := json.NewDecoder(req.Body).Decode(&msg); err != nil {
		http.Error(rw, "bad shard body", http.StatusBadRequest)
		return
	}
	ctx := req.Context()
	prog, err := w.progs.Get(msg.Spec.Workload, msg.Spec.Length)
	if err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	cfg := msg.Spec.Config
	if cfg == (uarch.Config{}) {
		cfg = uarch.Config8Way()
	}
	plan := msg.Spec.Plan.plan()
	if err := plan.Validate(); err != nil {
		http.Error(rw, err.Error(), http.StatusBadRequest)
		return
	}
	params := plan.CheckpointParams()
	if w.opt.Keyframe != 0 {
		params.Keyframe = w.opt.Keyframe
	}
	key := checkpoint.KeyFor(prog, cfg, params)

	// From here the stream is committed: failures travel as Error
	// records, per-unit results as Unit records, flushed as they
	// happen so the coordinator folds them while the shard still runs.
	rw.Header().Set("Content-Type", "application/x-ndjson")
	rw.WriteHeader(http.StatusOK)
	fl, _ := rw.(http.Flusher)
	enc := json.NewEncoder(rw)
	streamErr := false
	send := func(rec shardRecord) bool {
		if streamErr {
			return false
		}
		if err := enc.Encode(rec); err != nil {
			streamErr = true
			return false
		}
		if fl != nil {
			fl.Flush()
		}
		return true
	}

	onCaptured := func(captured int) bool {
		if ok, _ := w.opt.Faults.fire(FaultKillMidSweep); ok {
			w.opt.Faults.kill()
		}
		return send(shardRecord{Captured: captured})
	}
	onRetry := func(op string, attempt int, err error) {
		send(shardRecord{Retry: &wireRetry{Op: op, Attempt: attempt, Err: err.Error()}})
	}
	set, swept, err := w.ensureSet(ctx, key, prog, cfg, params, onCaptured, onRetry)
	if err != nil {
		send(shardRecord{Error: err.Error()})
		return
	}

	opt := engine.Options{Workers: w.opt.Workers}
	err = engine.ReplayRange(ctx, prog, cfg, plan.U, set, msg.Lo, msg.Hi, opt, func(ru engine.RangeUnit) bool {
		if ok, _ := w.opt.Faults.fire(FaultKillMidStream); ok {
			w.opt.Faults.kill()
		}
		w.replayed.Add(1)
		u := wireUnitFrom(ru)
		// Seal the measurement end to end: the digest travels with the
		// unit and the coordinator recomputes it before every merge.
		u.Digest = u.digest()
		if ok, _ := w.opt.Faults.fire(FaultCorruptFrame); ok {
			u.Cycles ^= 1 // corrupt a covered field AFTER sealing
		}
		return send(shardRecord{Unit: u})
	})
	if err != nil {
		send(shardRecord{Error: err.Error()})
		return
	}
	send(shardRecord{Done: &shardDone{
		Captured:    len(set.Units),
		Population:  set.PopulationUnits,
		SweepInsts:  set.SweepInsts,
		SweepTimeNs: int64(set.SweepTime),
		Swept:       swept,
	}})
}

// retryNotify observes one RPC attempt that failed and will be
// retried.
type retryNotify func(op string, attempt int, err error)

func (n retryNotify) forOp(op string) func(int, error) {
	if n == nil {
		return nil
	}
	return func(attempt int, err error) { n(op, attempt, err) }
}

// ensureSet materializes the snapshot set for key: the local cache
// first, then the fleet claim protocol — fetch when ready, sweep (and
// upload) when this worker wins ownership, poll while another worker
// sweeps. Coordinator RPCs retry transient failures with backoff;
// onRetry observes each retried attempt. onCaptured observes local
// sweep progress; a false return (the consumer hung up) aborts only
// the shard stream, never the sweep itself — a half-captured set would
// waste the fleet's one sweep.
func (w *Worker) ensureSet(ctx context.Context, key checkpoint.Key, prog *program.Program, cfg uarch.Config, params checkpoint.Params, onCaptured func(int) bool, onRetry retryNotify) (set *checkpoint.Set, swept bool, err error) {
	if set, _ := w.cache.Get(key); set != nil { //simlint:discard a memory-only cache never fails
		return set, false, nil
	}
	hash := key.Hash()
	for {
		if err := ctx.Err(); err != nil {
			return nil, false, err
		}
		var state string
		var leaseNs int64
		err := retry(ctx, w.policy, onRetry.forOp("sweep claim"), func() error {
			s, l, cerr := w.claim(ctx, hash)
			if cerr != nil {
				return cerr
			}
			state, leaseNs = s, l
			return nil
		})
		if err != nil {
			return nil, false, fmt.Errorf("dist: claim sweep %s: %w", hash, err)
		}
		switch state {
		case claimReady:
			var set *checkpoint.Set
			err := retry(ctx, w.policy, onRetry.forOp("sweep fetch"), func() error {
				s, ferr := w.fetchSet(ctx, key)
				if ferr != nil {
					return ferr
				}
				set = s
				return nil
			})
			if err == nil {
				w.cache.Put(key, set)
				return set, false, nil
			}
			// The cached sweep vanished between the claim and the fetch
			// (eviction) or the transfer broke past the retries: claim
			// again.
			w.logf("dist: sweep fetch %s failed: %v; re-claiming", hash, err)
		case claimOwner:
			set, wire, err := w.ownerSweep(ctx, key, prog, cfg, params, leaseNs, onCaptured, onRetry)
			if err != nil {
				return nil, false, err
			}
			w.sweeps.Add(1)
			w.cache.Put(key, set)
			uerr := retry(ctx, w.policy, onRetry.forOp("sweep upload"), func() error {
				return w.uploadSet(ctx, key, wire)
			})
			if uerr != nil {
				// The set is good locally; the fleet just cannot reuse
				// it. The claim lease expires and another worker will
				// re-sweep if needed.
				w.logf("dist: sweep upload %s failed: %v", hash, uerr)
			}
			return set, true, nil
		case claimWait:
			select {
			case <-time.After(w.opt.PollInterval):
			case <-ctx.Done():
				return nil, false, ctx.Err()
			}
		default:
			return nil, false, fmt.Errorf("dist: unknown claim state %q", state)
		}
	}
}

// ownerSweep runs the functional sweep this worker won the fleet claim
// for and returns it with its entry bytes. It resumes from the
// coordinator's journal when a dead previous owner left one
// (checkpoint.CaptureResumable falls back to a cold sweep if the journal
// does not validate), writes the sweep once into an in-memory
// checkpoint.SetWriter whose journaled prefixes it uploads as they are
// sealed — the first frame, then every ResumeInterval keyframes — so a
// successor can do the same, and renews the claim lease while it works.
// The sealed buffer is the /v1/sweeps upload.
func (w *Worker) ownerSweep(ctx context.Context, key checkpoint.Key, prog *program.Program, cfg uarch.Config, params checkpoint.Params, leaseNs int64, onCaptured func(int) bool, onRetry retryNotify) (*checkpoint.Set, []byte, error) {
	hash := key.Hash()
	renewCtx, stopRenew := context.WithCancel(ctx)
	defer stopRenew()
	if lease := time.Duration(leaseNs); lease > 0 {
		go w.renewLease(renewCtx, hash, lease/3)
	}
	rs, err := w.fetchPartial(ctx, key)
	if err != nil {
		w.logf("dist: partial journal fetch %s failed: %v; sweeping cold", hash, err)
		rs = nil
	}
	params.Resume = rs
	jw := checkpoint.BufferWriter(key, prog.Length/params.U, w.opt.ResumeInterval, func(journal []byte) {
		if err := w.uploadPartial(ctx, key, journal, onRetry); err != nil {
			// Non-fatal: the fleet just has a staler resume point.
			w.logf("dist: partial journal upload %s failed: %v", hash, err)
		}
	})
	set := &checkpoint.Set{K: params.K}
	var counted uint64 // sweep position already added to sweepExec
	params.OnFrame = func(fr checkpoint.ResumeFrame) {
		// Count executed work frame by frame so a sweep killed
		// mid-flight still accounts for what it burned.
		w.sweepExec.Add(fr.SweepInsts - counted)
		counted = fr.SweepInsts
	}
	sum, err := checkpoint.CaptureResumable(ctx, prog, cfg, params, jw, func(u *checkpoint.Unit) bool {
		// The journaled units come first, unless the journal failed
		// validation: they were neither executed nor captured here.
		journaled := rs != nil && len(set.Units) < len(rs.Units) && u == rs.Units[len(set.Units)]
		set.Units = append(set.Units, u)
		if journaled {
			counted = rs.SweepInsts
		} else if onCaptured != nil {
			onCaptured(len(set.Units))
		}
		return true
	})
	if err != nil {
		return nil, nil, err
	}
	if !sum.Complete {
		// Never cache or upload a cut sweep: every later shard of the
		// key would replay it with units missing.
		return nil, nil, fmt.Errorf("dist: sweep %s stopped before its end (%d units captured)", hash, sum.Captured)
	}
	set.PopulationUnits = sum.PopulationUnits
	set.SweepInsts = sum.SweepInsts
	set.SweepTime = sum.SweepTime
	w.sweepExec.Add(sum.SweepInsts - counted)
	if err := jw.Commit(sum.SweepInsts, sum.SweepTime); err != nil {
		return nil, nil, err
	}
	return set, jw.Bytes(), nil
}

// renewLease re-claims the sweep as its current owner every `every`,
// refreshing the coordinator's lease so a long sweep survives a short
// LeaseTTL.
func (w *Worker) renewLease(ctx context.Context, hash string, every time.Duration) {
	if every <= 0 {
		return
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if _, _, err := w.claim(ctx, hash); err != nil && ctx.Err() == nil {
			w.logf("dist: lease renewal for %s failed: %v", hash, err)
		}
	}
}

func (w *Worker) claim(ctx context.Context, hash string) (string, int64, error) {
	body, err := json.Marshal(claimMsg{Hash: hash, Owner: w.opt.Self})
	if err != nil {
		return "", 0, permanent(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		w.opt.Coordinator+"/v1/claims", bytes.NewReader(body))
	if err != nil {
		return "", 0, permanent(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return "", 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096)) //simlint:discard best-effort error-body snippet for the message
		err := fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(msg))
		if !httpRetryable(resp.StatusCode) {
			return "", 0, permanent(err)
		}
		return "", 0, err
	}
	var reply claimReply
	if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
		return "", 0, err
	}
	return reply.State, reply.LeaseNs, nil
}

// fetchPartial downloads the run's current partial-sweep journal
// (nil when none exists — the caller sweeps cold).
func (w *Worker) fetchPartial(ctx context.Context, key checkpoint.Key) (*checkpoint.ResumeState, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		w.opt.Coordinator+"/v1/partials/"+key.Hash(), nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("partial download: %s", resp.Status)
	}
	return checkpoint.DecodePartial(resp.Body, key)
}

// uploadPartial ships the owner's current journal to the coordinator,
// retrying transient failures.
func (w *Worker) uploadPartial(ctx context.Context, key checkpoint.Key, journal []byte, onRetry retryNotify) error {
	return retry(ctx, w.policy, onRetry.forOp("journal upload"), func() error {
		req, err := http.NewRequestWithContext(ctx, http.MethodPut,
			w.opt.Coordinator+"/v1/partials/"+key.Hash(), bytes.NewReader(journal))
		if err != nil {
			return permanent(err)
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		resp, err := w.client.Do(req)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096)) //simlint:discard best-effort error-body snippet for the message
			err := fmt.Errorf("partial upload: %s: %s", resp.Status, bytes.TrimSpace(msg))
			if !httpRetryable(resp.StatusCode) {
				return permanent(err)
			}
			return err
		}
		return nil
	})
}

func (w *Worker) fetchSet(ctx context.Context, key checkpoint.Key) (*checkpoint.Set, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		w.opt.Coordinator+"/v1/sweeps/"+key.Hash(), nil)
	if err != nil {
		return nil, err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("sweep download: %s", resp.Status)
	}
	return checkpoint.DecodeSet(resp.Body, key)
}

func (w *Worker) uploadSet(ctx context.Context, key checkpoint.Key, wire []byte) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPut,
		w.opt.Coordinator+"/v1/sweeps/"+key.Hash(), bytes.NewReader(wire))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent && resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096)) //simlint:discard best-effort error-body snippet for the message
		return fmt.Errorf("sweep upload: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	return nil
}
