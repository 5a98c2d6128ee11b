package sim

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/program"
	"repro/internal/smarts"
	"repro/internal/stats"
	"repro/internal/uarch"
	"repro/internal/wallclock"
)

// Session is the long-lived service object behind Session.Run: it owns
// the sweep cache, caches generated workloads and experiment state,
// supplies execution defaults, and deduplicates concurrent sweeps. All
// methods are safe for concurrent use.
type Session struct {
	set settings

	// sweeps shares completed sweeps across the session's runs: the
	// on-disk store alone when one is attached, else an in-memory tier
	// where the singleflight's leader parks its captured launch states
	// for waiters (and later requests).
	sweeps *checkpoint.SweepCache
	progs  program.Cache

	mu      sync.Mutex
	closed  bool
	exps    map[string]*experiments.Context
	flights map[string]*flight
}

// flight is one in-progress sweep generation for a store key; waiters
// block on done, then find the committed entry in the sweep cache.
type flight struct {
	done chan struct{}
}

// settings collects the session defaults the options mutate.
type settings struct {
	storeDir    string
	storeMax    int64
	memCacheMax int64
	workers     int
	alpha       float64
	keyframe    int
	sweepPar    int
	sweepOver   int64
	resumeInt   int
	logf        func(format string, args ...any)
	progress    ProgressFunc
	defLength   uint64
	defUnits    uint64
}

// Option configures a Session at Open.
type Option func(*settings) error

// WithStore attaches an on-disk checkpoint store rooted at dir:
// functional sweeps are persisted and shared across runs of the
// session (and across sessions pointed at the same directory), and
// concurrent requests needing the same sweep are deduplicated.
func WithStore(dir string) Option {
	return func(s *settings) error {
		if dir == "" {
			return fmt.Errorf("sim: empty store directory")
		}
		s.storeDir = dir
		return nil
	}
}

// WithStoreLimit caps the store's total size in bytes;
// least-recently-used entries are evicted on commit.
func WithStoreLimit(maxBytes int64) Option {
	return func(s *settings) error {
		if maxBytes < 0 {
			return fmt.Errorf("sim: negative store limit %d", maxBytes)
		}
		s.storeMax = maxBytes
		return nil
	}
}

// WithMemCacheBytes caps a storeless session's in-memory sweep cache at
// maxBytes of snapshot payload, evicting least-recently-used sweeps but
// never the one just captured; 0 (the default) leaves it unbounded.
// Store-backed sessions hold no sweeps in memory and ignore it.
func WithMemCacheBytes(maxBytes int64) Option {
	return func(s *settings) error {
		if maxBytes < 0 {
			return fmt.Errorf("sim: negative sweep cache limit %d", maxBytes)
		}
		s.memCacheMax = maxBytes
		return nil
	}
}

// WithWorkers sets the default replay worker-pool size for requests
// that do not set their own (0 or negative: one worker per core).
func WithWorkers(n int) Option {
	return func(s *settings) error {
		s.workers = n
		return nil
	}
}

// WithAlpha sets the default confidence parameter (default Alpha997).
func WithAlpha(alpha float64) Option {
	return func(s *settings) error {
		if alpha <= 0 || alpha >= 1 {
			return fmt.Errorf("sim: confidence parameter %v outside (0,1)", alpha)
		}
		s.alpha = alpha
		return nil
	}
}

// WithKeyframe sets the keyframe interval of delta-encoded checkpoint
// capture: every n-th captured unit carries a full snapshot (warm state
// and memory page table), the units between carry dirty-block and
// dirty-page deltas. 0 keeps the built-in default; 1 disables deltas
// (every unit a full snapshot). The interval trades store-entry and
// in-memory snapshot size against per-replay materialization work; it
// never changes results, and existing store entries stay valid (the
// interval is excluded from the store key).
func WithKeyframe(n int) Option {
	return func(s *settings) error {
		if n < 0 {
			return fmt.Errorf("sim: negative keyframe interval %d", n)
		}
		s.keyframe = n
		return nil
	}
}

// WithSweepParallelism runs the session's functional capture sweeps as
// n concurrent stream segments (the speculative parallel sweep): the
// selected launch boundaries are split into n contiguous runs, each
// segment's starting architectural state is fast-forwarded without
// warming, and the segments sweep concurrently. Architectural state
// and memory of every captured unit stay bit-identical to the serial
// sweep; warm state in segments after the first starts cold plus a
// warm-up overlap (WithSweepOverlap), a measured bias — see the
// bias-vs-stride experiment and the "Parallel sweeps and warming bias"
// section of the package documentation. Warmed parallel sweeps key
// separately in the checkpoint store and disable the crash-safe sweep
// journal. 0 and 1 keep the serial sweep (bit-identical to previous
// releases); negative is an error.
func WithSweepParallelism(n int) Option {
	return func(s *settings) error {
		if n < 0 {
			return fmt.Errorf("sim: negative sweep parallelism %d", n)
		}
		s.sweepPar = n
		return nil
	}
}

// WithSweepOverlap sets the per-segment warm-up length of parallel
// sweeps: each segment after the first begins warming n instructions
// before its first launch boundary, trading sweep time for cold-start
// bias. 0 keeps the built-in default (checkpoint.DefaultSweepOverlap);
// negative starts segments stone cold. Ignored by serial sweeps.
func WithSweepOverlap(n int64) Option {
	return func(s *settings) error {
		s.sweepOver = n
		return nil
	}
}

// WithResumeInterval sets the crash-safe sweep journal cadence: with a
// store attached, the entry a functional sweep stages is its journal,
// sealed every n keyframes, so a run killed or cancelled mid-sweep
// resumes from the journal when the same request reruns — producing a
// report bit-identical to an uninterrupted run. 0 keeps the built-in
// default (checkpoint.DefaultResumeInterval keyframes); negative
// disables journaling and resume. Sessions without a store never
// journal.
func WithResumeInterval(n int) Option {
	return func(s *settings) error {
		s.resumeInt = n
		return nil
	}
}

// WithLog routes store and session log lines (hits, misses, evictions)
// to fn; the default discards them.
func WithLog(fn func(format string, args ...any)) Option {
	return func(s *settings) error {
		s.logf = fn
		return nil
	}
}

// WithProgress attaches a session-level progress callback receiving
// every run's events (request-level callbacks are invoked as well).
func WithProgress(fn ProgressFunc) Option {
	return func(s *settings) error {
		s.progress = fn
		return nil
	}
}

// WithDefaults overrides the session's default workload length and
// target unit count for requests that leave them zero.
func WithDefaults(length, units uint64) Option {
	return func(s *settings) error {
		if length == 0 || units == 0 {
			return fmt.Errorf("sim: zero default length or units")
		}
		s.defLength, s.defUnits = length, units
		return nil
	}
}

// Open creates a Session. With no options the session runs fully in
// memory (no checkpoint store), one replay worker per core, at the
// paper's 99.7% confidence reporting.
func Open(opts ...Option) (*Session, error) {
	set := settings{
		alpha:     stats.Alpha997,
		defLength: DefaultLength,
		defUnits:  DefaultUnits,
	}
	for _, opt := range opts {
		if err := opt(&set); err != nil {
			return nil, err
		}
	}
	s := &Session{
		set:     set,
		exps:    make(map[string]*experiments.Context),
		flights: make(map[string]*flight),
	}
	if set.storeDir != "" {
		store, err := checkpoint.OpenStore(set.storeDir)
		if err != nil {
			return nil, err
		}
		store.MaxBytes = set.storeMax
		store.Logf = set.logf
		s.sweeps = checkpoint.DiskCache(store)
	} else {
		// Storeless sessions still deduplicate and reuse sweeps — in
		// memory, for the session's lifetime (bounded when the session
		// asks for it).
		s.sweeps = checkpoint.NewSweepCache(set.memCacheMax, nil)
	}
	return s, nil
}

// Close marks the session closed; subsequent Runs fail. In-flight runs
// are not interrupted (cancel their contexts for that).
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}

// StoreStats returns the checkpoint store's lifetime hit/miss counts;
// ok is false when the session has no store.
func (s *Session) StoreStats() (hits, misses uint64, ok bool) {
	if store := s.sweeps.Store(); store != nil {
		hits, misses = store.Stats()
		return hits, misses, true
	}
	return 0, 0, false
}

// StoreDir returns the checkpoint store directory ("" without a store).
func (s *Session) StoreDir() string {
	if store := s.sweeps.Store(); store != nil {
		return store.Dir()
	}
	return ""
}

// SweepCacheStats returns the in-memory sweep cache's lifetime
// hit/miss/eviction counts (evictions need WithMemCacheBytes); ok is
// false for a store-backed session, which holds no sweeps in memory.
func (s *Session) SweepCacheStats() (hits, misses, evictions uint64, ok bool) {
	hits, misses, evictions, _, ok = s.sweeps.MemStats()
	return
}

// Workload returns the generated workload for (name, length), building
// and caching it on first use. length 0 selects the session default.
// Concurrent requests for one (name, length) generate it once; the
// rest wait for the result.
func (s *Session) Workload(name string, length uint64) (*Workload, error) {
	if length == 0 {
		length = s.set.defLength
	}
	return s.progs.Get(name, length)
}

// Reference runs (uncached) the full-stream detailed simulation of the
// workload on cfg — the ground truth sampling estimates are judged
// against (a zero cfg selects the 8-way baseline). chunk is the
// per-chunk measurement granularity. The detailed run is not
// interruptible; ctx is checked before it starts.
func (s *Session) Reference(ctx context.Context, workload string, length, chunk uint64, cfg Config) (*Reference, error) {
	if err := s.runnable(ctx); err != nil {
		return nil, err
	}
	p, err := s.Workload(workload, length)
	if err != nil {
		return nil, err
	}
	return smarts.FullRun(p, resolveConfig(cfg), chunk)
}

// ExperimentNames lists the runnable experiment ids.
func ExperimentNames() []string { return experiments.Names() }

// Report is the result of one Session.Run.
type Report struct {
	// Results holds the sampling runs: one entry for plain requests,
	// one per offset (aligned with Offsets) for multi-offset requests,
	// and the final run of a procedure. Empty for experiments.
	Results []*Result
	// Offsets echoes the phase offsets of a multi-offset request.
	Offsets []uint64
	// Procedure reports both steps of a procedure request.
	Procedure *ProcedureResult
	// ExperimentOutput is the formatted table/figure of an experiment
	// request.
	ExperimentOutput string
	// CPI and EPI are the final estimates at the request's confidence
	// (the first offset's, for multi-offset runs; zero for
	// experiments).
	CPI, EPI Estimate
	// Elapsed is the end-to-end wall-clock time of the request.
	Elapsed time.Duration
}

// Result returns the primary sampling result (the first offset's run,
// or the procedure's final run); nil for experiment reports.
func (r *Report) Result() *Result {
	if len(r.Results) > 0 {
		return r.Results[0]
	}
	return nil
}

// Run executes one request. Every mode honors ctx: cancellation or
// deadline expiry stops the sweep and the worker pool, aborts any
// staged store entry, and returns ctx.Err().
func (s *Session) Run(ctx context.Context, req *Request) (*Report, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := req.validate(); err != nil {
		return nil, err
	}
	if err := s.runnable(ctx); err != nil {
		return nil, err
	}
	start := wallclock.Now()

	if req.Experiment != "" {
		rep, err := s.runExperiment(ctx, req)
		if err != nil {
			return nil, err
		}
		rep.Elapsed = wallclock.Since(start)
		return rep, nil
	}

	prog, err := s.Workload(req.Workload, req.Length)
	if err != nil {
		return nil, err
	}
	cfg := resolveConfig(req.Config)
	sink := newProgressSink(s.set.progress, req.Progress)
	alpha := req.Alpha
	if alpha == 0 {
		alpha = s.set.alpha
	}

	var rep *Report
	switch {
	case req.Procedure != nil:
		rep, err = s.runProcedure(ctx, req, prog, cfg, sink, alpha)
	case len(req.Offsets) > 0:
		rep, err = s.runPhases(ctx, req, prog, cfg, sink, alpha)
	default:
		var res *Result
		res, err = s.runPlan(ctx, req, prog, cfg, s.plan(req, prog, cfg), sink, "sample")
		if err == nil {
			rep = &Report{
				Results: []*Result{res},
				CPI:     res.CPIEstimate(alpha),
				EPI:     res.EPIEstimate(alpha),
			}
		}
	}
	if err != nil {
		return nil, err
	}
	rep.Elapsed = wallclock.Since(start)
	return rep, nil
}

// runnable gates new work on session and context state.
func (s *Session) runnable(ctx context.Context) error {
	s.mu.Lock()
	closed := s.closed
	s.mu.Unlock()
	if closed {
		return fmt.Errorf("sim: session is closed")
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// workers resolves the effective worker count for a request.
func (s *Session) workers(req *Request) int {
	n := req.Workers
	if n == 0 {
		n = s.set.workers
	}
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return n
}

// Package-level request defaults (overridable per session with
// WithDefaults).
const (
	// DefaultLength is the workload length requests fall back to.
	DefaultLength = 2_000_000
	// DefaultUnits is the target sampled-unit count requests fall back
	// to when they set neither K nor N.
	DefaultUnits = 400
)

// ResolvePlan returns the concrete sampling plan req describes against
// the generated workload prog — the request's knobs with the package
// defaults applied (U=1000, the config's recommended W, DefaultUnits
// target units). It is the plan a default-configured Session executes
// for req; the distributed service's coordinator and workers resolve it
// independently so both sides agree on unit indices without shipping a
// plan over the wire.
func ResolvePlan(req *Request, prog *Workload) Plan {
	return resolvePlan(req, prog, resolveConfig(req.Config), DefaultUnits)
}

// resolveConfig resolves the effective machine configuration: only a
// fully zero Config selects the 8-way baseline; a custom literal (even
// one without a Name) is used as given and validated by the run.
func resolveConfig(cfg Config) Config {
	if cfg == (Config{}) {
		return uarch.Config8Way()
	}
	return cfg
}

// plan builds the sampling plan a request describes, with the session's
// defaults.
func (s *Session) plan(req *Request, prog *program.Program, cfg Config) Plan {
	return resolvePlan(req, prog, cfg, s.set.defUnits)
}

func resolvePlan(req *Request, prog *program.Program, cfg Config, defUnits uint64) Plan {
	u := req.U
	if u == 0 {
		u = 1000
	}
	w := req.W
	if w == 0 && req.Warming != NoWarming {
		w = smarts.RecommendedW(cfg)
	}
	var plan Plan
	if req.K > 0 {
		j := req.J
		if j >= req.K {
			j %= req.K
		}
		plan = Plan{U: u, W: w, K: req.K, J: j, Warming: req.Warming}
	} else {
		n := req.N
		if n == 0 {
			n = defUnits
		}
		plan = smarts.PlanForN(prog.Length, u, w, n, req.Warming, req.J)
	}
	plan.MaxUnits = req.MaxUnits
	return plan
}

// planTotals reports the progress denominators of one plan execution:
// the workload's unit population and the expected sampled-unit count.
func planTotals(plan Plan, prog *program.Program) (pop uint64, total int) {
	if prog == nil || plan.U == 0 {
		return 0, 0
	}
	pop = prog.Length / plan.U
	return pop, plan.CheckpointParams().ExpectedUnits(pop)
}

// engineOptions builds the engine options for one plan execution.
func (s *Session) engineOptions(req *Request, sink *progressSink, stage string, offset uint64, plan Plan, prog *program.Program) smarts.EngineOptions {
	opt := smarts.EngineOptions{Options: engine.Options{
		Workers: s.workers(req),
		// The effective alpha (request, else session) drives both the
		// early-termination decision and the reported estimates, so
		// the stop criterion and the report agree.
		Alpha:            s.effAlpha(req),
		TargetEps:        req.TargetEps,
		MinUnits:         req.MinUnits,
		Keyframe:         s.set.keyframe,
		SweepParallelism: s.set.sweepPar,
		SweepOverlap:     s.set.sweepOver,
		ResumeInterval:   s.set.resumeInt,
	}}
	if !req.NoStore {
		opt.Cache = s.sweeps
	}
	if sink != nil {
		pop, total := planTotals(plan, prog)
		start := wallclock.Now()
		opt.OnCaptured = func(captured int) {
			sink.emit(Progress{Kind: EventUnitCaptured, Stage: stage, Offset: offset, Captured: captured,
				Population: pop, Total: total, ETA: wallclock.ETA(start, captured, total)})
		}
		// The collector folds units from one goroutine, so the lazily
		// set replay clock needs no synchronization; replay overlaps the
		// sweep in the streamed schedule, making the ETA the remaining
		// pipeline time, not a serial-stage sum.
		var replayStart time.Time
		opt.OnReplayed = func(replayed int, est stats.Estimate) {
			if replayStart.IsZero() {
				replayStart = wallclock.Now()
			}
			sink.emit(Progress{Kind: EventUnitReplayed, Stage: stage, Offset: offset, Replayed: replayed, Estimate: est,
				Population: pop, Total: total, ETA: wallclock.ETA(replayStart, replayed, total)})
		}
	}
	return opt
}

// runPlan executes one sampling plan through smarts.Run, which picks
// the executor from the warming mode; concurrent sweeps for the same
// store key are deduplicated.
func (s *Session) runPlan(ctx context.Context, req *Request, prog *program.Program, cfg Config, plan Plan, sink *progressSink, stage string) (*Result, error) {
	sink.emit(Progress{Kind: EventRunStart, Stage: stage, Offset: plan.J})

	opt := s.engineOptions(req, sink, stage, plan.J, plan, prog)
	run := func() (*Result, error) {
		return smarts.Run(ctx, prog, cfg, plan, opt)
	}
	var res *Result
	var err error
	if dedupSweeps(req, plan, opt) {
		key := checkpoint.KeyFor(prog, cfg, plan.CheckpointParams())
		res, err = singleflightDo(ctx, s, key, run)
	} else {
		res, err = run()
	}
	if err != nil {
		return nil, err
	}
	done := Progress{Kind: EventRunDone, Stage: stage, Offset: plan.J, Replayed: len(res.Units), Cached: res.SweepCached}
	if len(res.Units) > 0 {
		done.Estimate = res.CPIEstimate(s.effAlpha(req))
	}
	sink.emit(done)
	return res, nil
}

// dedupSweeps reports whether a plan's sweep is worth deduplicating
// across concurrent requests. That needs a sweep (a checkpointed plan)
// that the sweep cache can share, and one that is committable:
// early-terminated sweeps are incomplete and never committed, so
// deduplicating them would only serialize the contenders behind leaders
// that can never produce a reusable entry.
func dedupSweeps(req *Request, plan Plan, opt smarts.EngineOptions) bool {
	return plan.Checkpointed() && opt.Cache != nil && req.TargetEps <= 0
}

func (s *Session) effAlpha(req *Request) float64 {
	if req.Alpha != 0 {
		return req.Alpha
	}
	return s.set.alpha
}

// runPhases executes a multi-offset request through smarts.RunPhases:
// under functional warming all offsets are measured from one shared
// sweep (deduplicated under the multi-offset store key).
func (s *Session) runPhases(ctx context.Context, req *Request, prog *program.Program, cfg Config, sink *progressSink, alpha float64) (*Report, error) {
	plan := s.plan(req, prog, cfg)
	for _, j := range req.Offsets {
		if j >= plan.K {
			return nil, fmt.Errorf("sim: phase offset %d must be below the sampling interval %d", j, plan.K)
		}
	}

	sink.emit(Progress{Kind: EventRunStart, Stage: "sample"})
	opt := s.engineOptions(req, sink, "sample", 0, plan, prog)
	if sink != nil {
		// A multi-offset sweep captures every offset's units in one
		// pass, so the capture denominator spans all offsets while each
		// offset's replay counts against its own expectation.
		pop, _ := planTotals(plan, prog)
		sweepParams := plan.CheckpointParams()
		sweepParams.J = 0
		sweepParams.Offsets = req.Offsets
		sweepTotal := sweepParams.ExpectedUnits(pop)
		perOffset := make(map[uint64]int, len(req.Offsets))
		for _, j := range req.Offsets {
			pj := plan.CheckpointParams()
			pj.J = j
			pj.Offsets = nil
			perOffset[j] = pj.ExpectedUnits(pop)
		}
		start := wallclock.Now()
		opt.OnCaptured = func(captured int) {
			sink.emit(Progress{Kind: EventUnitCaptured, Stage: "sample", Captured: captured,
				Population: pop, Total: sweepTotal, ETA: wallclock.ETA(start, captured, sweepTotal)})
		}
		// Replay events of a multi-offset run carry their offset, so a
		// consumer can attribute the per-offset unit counters.
		opt.OnReplayed = nil
		var replayStart time.Time
		replayedAll := 0
		opt.OnPhaseReplayed = func(j uint64, replayed int, est stats.Estimate) {
			if replayStart.IsZero() {
				replayStart = wallclock.Now()
			}
			replayedAll++
			sink.emit(Progress{Kind: EventUnitReplayed, Stage: "sample", Offset: j, Replayed: replayed, Estimate: est,
				Population: pop, Total: perOffset[j], ETA: wallclock.ETA(replayStart, replayedAll, sweepTotal)})
		}
	}
	run := func() ([]*Result, error) {
		return smarts.RunPhases(ctx, prog, cfg, plan, req.Offsets, opt)
	}
	var results []*Result
	var err error
	if dedupSweeps(req, plan, opt) {
		params := plan.CheckpointParams()
		params.J = 0
		params.Offsets = req.Offsets
		if verr := params.Validate(); verr != nil {
			return nil, verr
		}
		key := checkpoint.KeyFor(prog, cfg, params)
		results, err = singleflightDo(ctx, s, key, run)
	} else {
		results, err = run()
	}
	if err != nil {
		return nil, err
	}
	if len(results) > 0 {
		done := Progress{Kind: EventRunDone, Stage: "sample", Replayed: len(results[0].Units), Cached: results[0].SweepCached}
		if len(results[0].Units) > 0 {
			done.Estimate = results[0].CPIEstimate(alpha)
		}
		sink.emit(done)
	}
	return phaseReport(req, results, alpha), nil
}

func phaseReport(req *Request, results []*Result, alpha float64) *Report {
	rep := &Report{
		Results: results,
		Offsets: append([]uint64(nil), req.Offsets...),
	}
	if len(results) > 0 {
		rep.CPI = results[0].CPIEstimate(alpha)
		rep.EPI = results[0].EPIEstimate(alpha)
	}
	return rep
}

// runProcedure executes the two-step procedure, reusing the canonical
// calibration loop with the session's plan runner (progress events and
// sweep deduplication included).
func (s *Session) runProcedure(ctx context.Context, req *Request, prog *program.Program, cfg Config, sink *progressSink, alpha float64) (*Report, error) {
	spec := *req.Procedure
	nInit := req.N
	if nInit == 0 {
		nInit = s.set.defUnits
	}
	pc := smarts.DefaultProcedure(cfg, nInit)
	pc.J = req.J
	if req.U != 0 {
		pc.U = req.U
	}
	if req.W != 0 {
		pc.W = req.W
	}
	pc.Warming = req.Warming
	if spec.Eps != 0 {
		pc.Eps = spec.Eps
	}
	// alpha is already the request-else-session effective confidence;
	// an explicit spec overrides both.
	pc.Alpha = alpha
	if spec.Alpha != 0 {
		pc.Alpha = spec.Alpha
	}
	if spec.Overshoot != 0 {
		pc.Overshoot = spec.Overshoot
	}

	runner := func(ctx context.Context, stage string, plan Plan) (*Result, error) {
		return s.runPlan(ctx, req, prog, cfg, plan, sink, stage)
	}
	pr, err := smarts.RunProcedureWith(ctx, prog, cfg, pc, runner)
	if err != nil {
		return nil, err
	}
	final := pr.FinalResult()
	return &Report{
		Results:   []*Result{final},
		Procedure: pr,
		CPI:       pr.Final(),
		EPI:       final.EPIEstimate(pc.Alpha),
	}, nil
}

// runExperiment regenerates one of the paper's figures or tables.
func (s *Session) runExperiment(ctx context.Context, req *Request) (*Report, error) {
	scale := req.Scale
	if scale == "" {
		scale = "small"
	}
	ec, err := s.expContext(scale, req)
	if err != nil {
		return nil, err
	}
	cfg := resolveConfig(req.Config)
	var buf bytes.Buffer
	out := io.Writer(&buf)
	if req.Output != nil {
		out = io.MultiWriter(req.Output, &buf)
	}
	if err := experiments.Run(ctx, req.Experiment, ec, cfg, out); err != nil {
		return nil, err
	}
	return &Report{ExperimentOutput: buf.String()}, nil
}

// expContext returns the session's shared experiment context for a
// scale, creating it on first use. Program and reference caches are
// shared across every experiment request with the same scale and store
// setting.
func (s *Session) expContext(scale string, req *Request) (*experiments.Context, error) {
	sc, err := experiments.ScaleByName(scale)
	if err != nil {
		return nil, err
	}
	useStore := !req.NoStore && s.sweeps.Store() != nil
	// The cache key carries the store setting baked into the context,
	// so a NoStore request never inherits a store-attached context (or
	// vice versa). Worker counts are deliberately NOT in the key:
	// engine results are bit-identical at any count, and the context's
	// expensive reference cache should be shared across them (the first
	// request's count sticks).
	key := fmt.Sprintf("%s/store=%v", scale, useStore)
	s.mu.Lock()
	defer s.mu.Unlock()
	if ec, ok := s.exps[key]; ok {
		return ec, nil
	}
	ec := experiments.NewContext(sc)
	ec.Parallelism = s.workers(req)
	if useStore {
		ec.Ckpt = s.sweeps
	}
	s.exps[key] = ec
	return ec, nil
}

// singleflightDo deduplicates concurrent sweep generation for one store
// key: the first request becomes the leader and runs fn (sweeping and
// committing the entry to the session's sweep cache); concurrent
// requests for the same key wait for the leader, then run fn themselves
// against the now-committed entry (a hit — no second sweep). If the
// leader failed or was cancelled before committing, each waiter retries
// leadership in turn, so one bad run never poisons the key. The result
// may be a single run or a per-offset slice.
func singleflightDo[T any](ctx context.Context, s *Session, key checkpoint.Key, fn func() (T, error)) (T, error) {
	hash := key.Hash()
	for {
		s.mu.Lock()
		f, inFlight := s.flights[hash]
		if !inFlight {
			f = &flight{done: make(chan struct{})}
			s.flights[hash] = f
			s.mu.Unlock()

			res, err := fn()
			s.mu.Lock()
			delete(s.flights, hash)
			s.mu.Unlock()
			close(f.done)
			return res, err
		}
		s.mu.Unlock()

		select {
		case <-f.done:
		case <-ctx.Done():
			var zero T
			return zero, ctx.Err()
		}
		if s.sweeps.Contains(key) {
			// The leader committed; run against the entry (a hit).
			return fn()
		}
		// Leader failed or never committed (early termination, error,
		// cancel): loop and contend for leadership.
	}
}
