// Package engine runs a checkpointed SMARTS sampling plan as a parallel
// pipeline: a functional sweep captures per-unit launch checkpoints
// (internal/checkpoint) and streams each one to a worker pool the
// moment it is taken, workers replay detailed warming plus measurement
// for each unit from its snapshot, and a deterministic streaming
// aggregator (internal/stats) folds per-unit CPI/EPI in stream order,
// optionally terminating early once a target confidence interval is
// reached.
//
// Because capture and replay overlap, end-to-end wall clock approaches
// max(sweep, replay/workers) instead of their sum — the sweep stops
// being an Amdahl pre-pass. With a sweep cache attached (Options.Cache:
// memory, an on-disk checkpoint store, or both), a workload's sweep is
// paid once and later runs skip it entirely, reusing its launch states.
// LoadOrCapture is the capture-then-replay form that multi-offset runs
// use with RunSet.
//
// Because every unit's detailed simulation is fully determined by its
// checkpoint, and every schedule folds units through one stream-order
// Fold, results are bit-identical for any worker count, any schedule
// (streamed, captured first, store-loaded, or sharded across a fleet
// with ReplayRange), and any early-termination setting. This is the
// property the SMARTS paper's ~10,000-unit samples make available:
// units are statistically and, once checkpointed, computationally
// independent. The in-place loop of internal/smarts is a different
// executor (a core carried from unit to unit); it agrees with the
// engine only within the bounds TestEngineMatchesLoop documents.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/functional"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/uarch"
	"repro/internal/wallclock"
)

// Options configures engine execution beyond the sampling parameters.
type Options struct {
	// Workers is the worker-pool size; values <= 0 select GOMAXPROCS.
	Workers int
	// Alpha is the confidence parameter used by early termination (and
	// the reported estimate); zero selects stats.Alpha997.
	Alpha float64
	// TargetEps, when positive, stops measuring once the CPI estimate's
	// relative confidence interval is within ±TargetEps. The cutoff is
	// decided on stream-order prefixes, so it is deterministic for any
	// worker count.
	TargetEps float64
	// MinUnits is the minimum number of units measured before early
	// termination may trigger (default 2).
	MinUnits uint64
	// Cache, when non-nil, is consulted before sweeping: a sweep it
	// holds for this (workload, plan, warm geometry) skips the
	// functional sweep entirely, and a completed fresh sweep is committed
	// to its tiers for later runs. Early-terminated sweeps are not
	// committed (they are incomplete).
	Cache *checkpoint.SweepCache
	// Keyframe overrides checkpoint.Params.Keyframe (the full-snapshot
	// interval of delta-encoded capture) when positive. It changes only
	// the encoding, never the materialized launch states, and is
	// excluded from the store key.
	Keyframe int
	// ResumeInterval controls the crash-safe sweep journal kept
	// alongside the store: while the streaming sweep runs, the engine
	// persists a partial-sweep record (checkpoint.PartialWriter) every
	// ResumeInterval keyframes, and a later run of the same key resumes
	// an interrupted sweep from the journal instead of restarting at
	// instruction zero — the resumed unit stream is bit-identical to an
	// uninterrupted sweep's. 0 selects DefaultResumeInterval; negative
	// disables journaling and resume. Ignored without a disk tier in
	// Cache (the journal lives in the store directory) and by
	// LoadOrCapture.
	ResumeInterval int
	// SweepParallelism overrides checkpoint.Params.SweepParallelism when
	// above 1: the capture sweep runs as that many concurrent stream
	// segments (speculative parallel sweep). Architectural state stays
	// exact; segments after the first start with cold warm state plus
	// SweepOverlap instructions of warm-up, a measured bias (see the
	// checkpoint package). Warmed parallel sweeps key separately in the
	// store, and the crash-safe sweep journal is disabled for them (a
	// parallel sweep has no single resumable position).
	SweepParallelism int
	// SweepOverlap overrides checkpoint.Params.SweepOverlap when
	// nonzero; see that field for the semantics (0 default, negative =
	// stone cold).
	SweepOverlap int64
	// OnCaptured, when non-nil, observes sweep progress: it is called
	// with the cumulative captured-unit count each time a launch
	// snapshot enters the pipeline (once with the total when the launch
	// states come from the cache or LoadOrCapture). Called
	// from the sweep goroutine; callbacks must be fast and may not block
	// on the engine.
	OnCaptured func(captured int)
	// OnReplayed, when non-nil, observes replay progress: it is called
	// each time the deterministic stream-order prefix grows, with the
	// folded unit count and the current CPI estimate over that prefix.
	// Called from the collector goroutine, never concurrently with
	// itself (but possibly concurrently with OnCaptured).
	OnReplayed func(replayed int, est stats.Estimate)
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// DefaultResumeInterval is the journal cadence used when
// Options.ResumeInterval is zero: one partial-sweep commit every 4
// keyframes keeps the journal I/O a small fraction of capture while
// bounding the replay window an interruption loses to a few keyframe
// intervals of units.
const DefaultResumeInterval = 4

// ResumeKeyframes returns the effective journal cadence of
// ResumeInterval in keyframes (0 = journaling disabled).
func (o Options) ResumeKeyframes() int {
	switch {
	case o.ResumeInterval == 0:
		return DefaultResumeInterval
	case o.ResumeInterval < 0:
		return 0
	}
	return o.ResumeInterval
}

// UnitResult is the measurement of one sampling unit.
type UnitResult struct {
	// Index is the unit's position in the population (unit number).
	Index uint64
	// Cycles is the number of cycles the unit's U instructions took to
	// commit.
	Cycles uint64
	// EnergyNJ is the energy accumulated while the unit committed.
	EnergyNJ float64
	// CPI and EPI are the unit's per-instruction metrics.
	CPI, EPI float64
}

// Result collects a parallel sampling run.
type Result struct {
	// Units holds the per-unit measurements in stream order, truncated
	// at the early-termination cutoff when one triggered.
	Units []UnitResult
	// PopulationUnits is the benchmark length in units.
	PopulationUnits uint64

	// Instruction accounting.
	MeasuredInsts uint64 // detailed, measured
	WarmingInsts  uint64 // detailed, unmeasured
	SweepInsts    uint64 // functionally simulated by the capture sweep

	// SweepResumedInsts is the journaled stream position the sweep
	// resumed from (0 when the sweep ran cold): SweepInsts -
	// SweepResumedInsts is the functional work this run actually
	// executed, the quantity crash/resume accounting bounds.
	SweepResumedInsts uint64

	// SweepTime is the wall-clock cost of the capture sweep (overlapped
	// with replay in the streaming schedule; the original sweep's cost
	// when launch states came from the store); DetailedTime is the CPU
	// time summed over per-unit detailed replays (wall-clock detailed
	// cost is roughly DetailedTime divided by the worker count);
	// WallTime is the end-to-end elapsed time.
	SweepTime    time.Duration
	DetailedTime time.Duration
	WallTime     time.Duration

	// EarlyStopped reports that the confidence target cut the run short.
	EarlyStopped bool
	// SweepCached reports that launch states were loaded from the
	// checkpoint store instead of sweeping.
	SweepCached bool
}

// streamBuffer bounds how far capture may run ahead of replay dispatch.
// Snapshots are sizeable (cache tag arrays, predictor tables), so the
// pipeline holds only a few in flight; the sweep blocks when replay is
// the bottleneck and the snapshots' memory stays bounded.
const streamBuffer = 4

// Run executes the plan described by p: launch states come from the
// sweep cache when possible, from a streaming sweep otherwise, and are
// replayed across the worker pool.
//
// ctx cancels the whole pipeline: the sweep stops at its next chunk
// boundary, workers finish only their in-flight unit, the store writer
// aborts its staged entry (a committed entry is always a complete
// sweep), and Run returns ctx.Err(). With resume journaling enabled
// (Options.ResumeInterval), the interrupted sweep's progress is
// committed to a partial-sweep journal beside the store entries first,
// so rerunning the same key continues the sweep instead of restarting
// it. A nil ctx is treated as context.Background().
func Run(ctx context.Context, prog *program.Program, cfg uarch.Config, p checkpoint.Params, opt Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	start := wallclock.Now()
	p = opt.params(p)
	key := opt.keyFor(prog, cfg, p)
	set, err := opt.Cache.Get(key)
	if err != nil {
		return nil, err
	}
	if set == nil {
		return replayStreaming(ctx, prog, cfg, p, key, opt, start)
	}
	if opt.OnCaptured != nil {
		opt.OnCaptured(len(set.Units))
	}
	res, err := replaySet(ctx, prog, cfg, p.U, set, opt, start)
	if err != nil {
		return nil, err
	}
	res.SweepCached = true
	return res, nil
}

// LoadOrCapture returns the launch states p describes and whether they
// were reused: a sweep the cache holds is loaded, otherwise a capture
// sweep runs to completion and is committed to the cache before
// LoadOrCapture returns. It is the capture-then-replay schedule
// of multi-offset runs, which replay the one set per offset with
// RunSet; Run instead overlaps a fresh sweep with replay. The returned
// set is the caller's.
func LoadOrCapture(ctx context.Context, prog *program.Program, cfg uarch.Config, p checkpoint.Params, opt Options) (set *checkpoint.Set, cached bool, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	p = opt.params(p)
	if err := p.Validate(); err != nil {
		return nil, false, err
	}
	key := opt.keyFor(prog, cfg, p)
	if set, err = opt.Cache.Get(key); err != nil {
		return nil, false, err
	}
	cached = set != nil
	if !cached {
		if set, err = checkpoint.Capture(ctx, prog, cfg, p); err != nil {
			return nil, false, err
		}
		opt.Cache.Put(key, set)
	}
	if opt.OnCaptured != nil {
		opt.OnCaptured(len(set.Units))
	}
	return set, cached, nil
}

// params folds the encoding and sweep-partition overrides into p.
func (o Options) params(p checkpoint.Params) checkpoint.Params {
	if o.Keyframe > 0 {
		p.Keyframe = o.Keyframe
	}
	if o.SweepParallelism > 1 {
		p.SweepParallelism = o.SweepParallelism
	}
	if o.SweepOverlap != 0 {
		p.SweepOverlap = o.SweepOverlap
	}
	return p
}

// keyFor returns p's store key, or the zero key when no cache is
// attached to look it up in.
func (o Options) keyFor(prog *program.Program, cfg uarch.Config, p checkpoint.Params) checkpoint.Key {
	if o.Cache == nil {
		return checkpoint.Key{}
	}
	return checkpoint.KeyFor(prog, cfg, p)
}

// RunSet replays an already-captured set of launch states across the
// worker pool — the entry point for callers that captured several phase
// offsets in one sweep (checkpoint.Set.Offset) or otherwise manage
// capture themselves. The caller keeps ownership of set; its Units
// slice is not modified. ctx cancels the replay as in Run.
func RunSet(ctx context.Context, prog *program.Program, cfg uarch.Config, u uint64, set *checkpoint.Set, opt Options) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if u == 0 {
		return nil, fmt.Errorf("engine: zero sampling unit size")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return replaySet(ctx, prog, cfg, u, set.Clone(), opt, wallclock.Now())
}

// replaySet feeds an in-memory set through the replay pool. It owns
// set.Units (entries are nilled as they are dispatched so snapshots
// become collectable).
func replaySet(ctx context.Context, prog *program.Program, cfg uarch.Config, u uint64, set *checkpoint.Set, opt Options, start time.Time) (*Result, error) {
	res := &Result{
		PopulationUnits: set.PopulationUnits,
		SweepInsts:      set.SweepInsts,
		SweepTime:       set.SweepTime,
	}
	if len(set.Units) == 0 {
		res.WallTime = wallclock.Since(start)
		return res, nil
	}
	nw := opt.workers()
	if nw > len(set.Units) {
		nw = len(set.Units)
	}

	col := newCollector(ctx, prog, cfg, u, nw, opt, len(set.Units))
	go func() {
		defer close(col.feed)
		for seq, cu := range set.Units {
			select {
			case col.feed <- cu:
				// Drop the set's reference so a unit's snapshot (cache/TLB
				// tag arrays, predictor tables, memory-image map) becomes
				// collectable as soon as its replay finishes, instead of
				// pinning every checkpoint until the whole run completes.
				set.Units[seq] = nil
			case <-col.quit:
				return
			}
		}
	}()
	if err := col.collect(res); err != nil {
		return nil, err
	}
	res.WallTime = wallclock.Since(start)
	return res, nil
}

// replayStreaming overlaps the capture sweep with replay: the sweep
// goroutine emits each unit into the pipeline the moment its snapshot
// is taken, and commits the stream to the sweep cache when one is
// attached.
func replayStreaming(ctx context.Context, prog *program.Program, cfg uarch.Config, p checkpoint.Params, key checkpoint.Key, opt Options, start time.Time) (*Result, error) {
	col := newCollector(ctx, prog, cfg, p.U, opt.workers(), opt, 0)

	type sweepOut struct {
		sum *checkpoint.Summary
		err error
	}
	sweepc := make(chan sweepOut, 1)
	go func() {
		sw := opt.Cache.Writer(key, prog.Length/p.U)
		store := opt.Cache.Store()
		// Crash-safe resume: load any partial-sweep journal left by an
		// interrupted run of this key, and stage a fresh journal this
		// sweep commits its own progress into (the previously journaled
		// units are re-added so the new journal is self-contained).
		var pw *checkpoint.PartialWriter
		var rs *checkpoint.ResumeState
		if ri := opt.ResumeKeyframes(); store != nil && ri > 0 && p.SweepParallelism <= 1 {
			var rerr error
			if rs, rerr = checkpoint.Resume(store, key); rerr != nil {
				store.Log("checkpoint store: resume unavailable: %v", rerr)
				rs = nil
			}
			if pw0, perr := store.PartialWriter(key, prog.Length/p.U); perr != nil {
				store.Log("checkpoint store: not journaling: %v", perr)
			} else {
				pw = pw0
			}
			p.Resume = rs
		}
		// journalFail stops journaling after a write error. The failed
		// writer has already cleaned up after itself; a journal from an
		// earlier run that this writer never replaced stays usable.
		journalFail := func(werr error) {
			store.Log("checkpoint store: sweep journal failed: %v", werr)
			pw = nil
		}

		captured := 0
		kfSince := 0 // keyframes captured since the last journal commit
		var lastFrame checkpoint.ResumeFrame
		framePending := false
		// The journaled units enter the pipeline (and the writers) ahead
		// of the first newly captured unit — after CaptureStream validated
		// the journal against the plan, so an unusable journal feeds
		// nothing and the sweep can restart cold below.
		fedResumed := rs == nil
		// push writes cu through to the sweep cache and the journal, then
		// feeds it to the pipeline; false once the pipeline has quit.
		push := func(cu *checkpoint.Unit) bool {
			sw.Add(cu)
			if pw != nil {
				if werr := pw.Add(cu); werr != nil {
					journalFail(werr)
				}
			}
			select {
			case col.feed <- cu:
				captured++
				if opt.OnCaptured != nil {
					opt.OnCaptured(captured)
				}
				return true
			case <-col.quit:
				return false
			}
		}
		feedResumed := func() bool {
			fedResumed = true
			for _, cu := range rs.Units {
				if !push(cu) {
					return false
				}
			}
			return true
		}
		p.OnFrame = func(fr checkpoint.ResumeFrame) {
			lastFrame, framePending = fr, true
			if pw != nil && kfSince >= opt.ResumeKeyframes() {
				if werr := pw.Checkpoint(fr); werr != nil {
					journalFail(werr)
				} else {
					kfSince, framePending = 0, false
				}
			}
		}
		emit := func(cu *checkpoint.Unit) bool {
			if !fedResumed && !feedResumed() {
				return false
			}
			if cu.Mem != nil {
				kfSince++
			}
			return push(cu)
		}
		sum, err := checkpoint.CaptureStream(ctx, prog, cfg, p, emit)
		if err != nil && p.Resume != nil && !fedResumed && ctx.Err() == nil {
			// The journal failed resume validation before anything entered
			// the pipeline: drop it and sweep cold rather than failing a
			// run a cold sweep can still complete.
			store.Log("checkpoint store: dropping unusable partial %s: %v", key.Hash(), err)
			store.DropPartial(key)
			p.Resume, rs = nil, nil
			fedResumed = true
			sum, err = checkpoint.CaptureStream(ctx, prog, cfg, p, emit)
		}
		if err == nil && sum.Complete && !fedResumed {
			// The journal already covered every boundary: no new unit was
			// captured, so the resumed units enter the pipeline here.
			feedResumed()
		}
		close(col.feed)
		if err == nil && sum.Complete {
			sw.Commit(p.K, sum)
		} else {
			sw.Abort()
		}
		if pw != nil {
			if err == nil && sum.Complete {
				// The committed entry supersedes the journal.
				pw.Discard()
			} else {
				// Interrupted (cancel, early stop, failure): commit the
				// journal through the last captured unit and keep it, so a
				// rerun of this key resumes here instead of restarting.
				if framePending && fedResumed {
					if werr := pw.Checkpoint(lastFrame); werr != nil {
						journalFail(werr)
					}
				}
				if pw != nil {
					if werr := pw.Close(); werr != nil {
						store.Log("checkpoint store: sweep journal close failed: %v", werr)
					}
				}
			}
		}
		sweepc <- sweepOut{sum, err}
	}()

	res := &Result{}
	collectErr := col.collect(res)
	sweep := <-sweepc
	if collectErr != nil {
		return nil, collectErr
	}
	// A sweep error matters only if it prevented units the run still
	// wanted: when early termination already cut the stream, the sweep
	// was cancelled on purpose and its state is irrelevant.
	if sweep.err != nil && !res.EarlyStopped {
		return nil, sweep.err
	}
	res.PopulationUnits = sweep.sum.PopulationUnits
	res.SweepInsts = sweep.sum.SweepInsts
	res.SweepResumedInsts = sweep.sum.ResumedAt
	res.SweepTime = sweep.sum.SweepTime
	res.WallTime = wallclock.Since(start)
	return res, nil
}

// collector feeds a producer's unit stream through the replay pool into
// a Fold. Producers send on feed in stream order (the dispatcher assigns
// ascending seq numbers) and watch pool.quit, which fires once the
// outcome can no longer change (early termination, error, or context
// cancellation).
type collector struct {
	*pool
	feed chan *checkpoint.Unit
	opt  Options
	hint int
}

func newCollector(ctx context.Context, prog *program.Program, cfg uarch.Config, u uint64, nw int, opt Options, hint int) *collector {
	return &collector{
		pool: newPool(ctx, prog, cfg, u, nw),
		feed: make(chan *checkpoint.Unit, streamBuffer),
		opt:  opt,
		hint: hint,
	}
}

// collect runs the pool until the unit stream ends (or the run is cut
// short) and fills the measurement half of res.
func (c *collector) collect(res *Result) error {
	fold := NewFold(c.u, c.opt, c.hint)
	err := c.run(func(send func(int, *checkpoint.Unit) bool) {
		seq := 0
		for cu := range c.feed {
			if !send(seq, cu) {
				// Keep draining feed so a blocked producer can always
				// make progress to its own quit check.
				for range c.feed {
				}
				return
			}
			seq++
		}
	}, func(ru RangeUnit) {
		if fold.Offer(ru) {
			c.stop()
		}
	})
	if err != nil {
		return err
	}
	// A cancelled context trumps whatever partial measurement drained
	// out — unless early termination had already fixed the outcome, in
	// which case the result is complete and the cancel merely raced it.
	if err := c.ctx.Err(); err != nil && !fold.EarlyStopped() {
		return err
	}
	fold.Finish(res)
	return nil
}

// pool is the replay worker pool every schedule shares: a dispatcher
// hands units to nw workers, and their completions return to the
// goroutine that called run. stop (idempotent) closes quit and ends
// dispatch; in-flight units still finish and drain. Cancelling ctx
// fires the same stop.
type pool struct {
	ctx  context.Context
	prog *program.Program
	cfg  uarch.Config
	u    uint64
	nw   int

	quit     chan struct{}
	quitOnce sync.Once
}

func newPool(ctx context.Context, prog *program.Program, cfg uarch.Config, u uint64, nw int) *pool {
	if nw < 1 {
		nw = 1
	}
	return &pool{ctx: ctx, prog: prog, cfg: cfg, u: u, nw: nw, quit: make(chan struct{})}
}

func (p *pool) stop() { p.quitOnce.Do(func() { close(p.quit) }) }

// run replays the units dispatch sends and passes each completion to
// handle, on the calling goroutine, until every worker has exited.
// dispatch runs on its own goroutine; send returns false once the pool
// has stopped, and dispatch should then return. The first replay error
// stops the pool and is returned; completions after it drain unhandled.
func (p *pool) run(dispatch func(send func(seq int, cu *checkpoint.Unit) bool), handle func(RangeUnit)) error {
	type unitJob struct {
		seq  int // position in the captured sequence
		unit *checkpoint.Unit
	}
	type unitDone struct {
		ru  RangeUnit
		err error
	}
	jobs := make(chan unitJob)
	done := make(chan unitDone, p.nw)

	// The watcher is released at run exit so it never outlives the run
	// (no goroutine leak on the uncancelled path).
	watchDone := make(chan struct{})
	defer close(watchDone)
	go func() {
		select {
		case <-p.ctx.Done():
			p.stop()
		case <-watchDone:
		}
	}()

	var wg sync.WaitGroup
	for i := 0; i < p.nw; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for job := range jobs {
				ru, err := replay(p.prog, p.cfg, job.unit, p.u)
				ru.Seq = job.seq
				done <- unitDone{ru, err}
			}
		}()
	}
	go func() {
		defer close(jobs)
		dispatch(func(seq int, cu *checkpoint.Unit) bool {
			select {
			case jobs <- unitJob{seq, cu}:
				return true
			case <-p.quit:
				return false
			}
		})
	}()
	go func() {
		wg.Wait()
		close(done)
	}()

	var firstErr error
	for d := range done {
		switch {
		case d.err != nil:
			if firstErr == nil {
				firstErr = d.err
			}
			p.stop()
		case firstErr == nil:
			handle(d.ru)
		}
	}
	p.stop() // release the producer if the stream ended naturally
	return firstErr
}

// replay runs one unit's detailed warming + measurement from its
// checkpoint. The machine and core are built fresh per unit: a unit's
// measurement must be a pure function of its checkpoint, and reusing a
// core would thread worker-local accumulation (notably the energy
// meter's floating-point total) into the per-unit readings.
func replay(prog *program.Program, cfg uarch.Config, cu *checkpoint.Unit, u uint64) (RangeUnit, error) {
	machine := uarch.NewMachine(cfg)
	// Delta-encoded snapshots are materialized here, on the worker, so
	// the capture sweep's critical path copies only dirty blocks and
	// pages; the reconstruction (clone keyframe, apply the delta chain —
	// warm state and memory alike) is read-only on the shared snapshots
	// and therefore safe at any worker count.
	launch, err := cu.Materialize()
	if err != nil {
		return RangeUnit{}, fmt.Errorf("engine: unit %d: %w", cu.Index, err)
	}
	if launch.Warm != nil {
		if err := machine.Hier.Restore(launch.Warm.Hier); err != nil {
			return RangeUnit{}, fmt.Errorf("engine: unit %d: %w", cu.Index, err)
		}
		if err := machine.Pred.Restore(launch.Warm.Pred); err != nil {
			return RangeUnit{}, fmt.Errorf("engine: unit %d: %w", cu.Index, err)
		}
	}
	cpu := functional.NewAt(prog, cu.Arch, launch.Mem.NewMemory())
	src := &uarch.Source{CPU: cpu}
	core := uarch.NewCore(machine)

	w := cu.WarmLen()
	start := wallclock.Now()
	marks := []uarch.Mark{{At: w}, {At: w + u}}
	runStats, err := core.Run(src, w+u, marks)
	if err != nil {
		return RangeUnit{}, fmt.Errorf("engine: detailed run at unit %d: %w", cu.Index, err)
	}
	elapsed := wallclock.Since(start)
	if runStats.Insts < w+u {
		return RangeUnit{Partial: true, Elapsed: elapsed}, nil
	}
	cycles := marks[1].Cycle - marks[0].Cycle
	energy := marks[1].EnergyNJ - marks[0].EnergyNJ
	return RangeUnit{
		Res: UnitResult{
			Index:    cu.Index,
			Cycles:   cycles,
			EnergyNJ: energy,
			CPI:      float64(cycles) / float64(u),
			EPI:      energy / float64(u),
		},
		Warming: w,
		Elapsed: elapsed,
	}, nil
}
