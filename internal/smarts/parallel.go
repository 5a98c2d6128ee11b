package smarts

import (
	"context"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/program"
	"repro/internal/stats"
	"repro/internal/uarch"
)

// EngineOptions configures the checkpointed parallel engine that runs
// functional-warming plans (see Run). The in-place loop ignores it.
type EngineOptions struct {
	// Workers is the worker-pool size; values <= 0 select GOMAXPROCS.
	Workers int
	// Alpha is the confidence parameter for early termination (zero
	// selects stats.Alpha997).
	Alpha float64
	// TargetEps, when positive, stops measuring units once the CPI
	// estimate's relative confidence interval is within ±TargetEps. The
	// cutoff is decided on stream-order prefixes, so enabling it keeps
	// results deterministic across worker counts.
	TargetEps float64
	// MinUnits is the minimum measured-unit count before early
	// termination may trigger.
	MinUnits uint64
	// Store, when non-nil, persists and reuses capture sweeps on disk
	// (see checkpoint.Store).
	Store *checkpoint.Store
	// Cache, when non-nil, reuses capture sweeps in memory (checked
	// after the store); the sim session attaches one to storeless
	// sessions.
	Cache *checkpoint.MemCache
	// Keyframe overrides the delta-encoded capture's full-snapshot
	// interval when positive (see checkpoint.Params.Keyframe). Encoding
	// only — materialized launch states, and therefore results, are
	// unchanged.
	Keyframe int
	// SweepParallelism, when above 1, runs the capture sweep as that
	// many concurrent stream segments (the speculative parallel sweep;
	// see checkpoint.Params.SweepParallelism). Architectural state stays
	// exact; warm state in segments after the first starts cold plus
	// SweepOverlap warm-up instructions, a measured bias.
	SweepParallelism int
	// SweepOverlap is the per-segment warm-up length of a parallel
	// sweep (0 = checkpoint.DefaultSweepOverlap, negative = none).
	SweepOverlap int64
	// ResumeInterval sets the crash-safe sweep journal cadence in
	// keyframes (see engine.Options.ResumeInterval): 0 = default,
	// negative disables partial-sweep journaling and resume.
	ResumeInterval int
	// OnCaptured and OnReplayed observe pipeline progress; see
	// engine.Options. The sim package uses them to emit typed progress
	// events.
	OnCaptured func(captured int)
	OnReplayed func(replayed int, est stats.Estimate)
	// OnPhaseReplayed, when non-nil, observes multi-offset replay
	// progress with the phase offset attached; RunPhases then
	// invokes it instead of OnReplayed for each offset's replay.
	OnPhaseReplayed func(j uint64, replayed int, est stats.Estimate)
}

// engineOptions translates EngineOptions to the engine's option struct.
func (opt EngineOptions) engineOptions() engine.Options {
	return engine.Options{
		Workers:          opt.Workers,
		Alpha:            opt.Alpha,
		TargetEps:        opt.TargetEps,
		MinUnits:         opt.MinUnits,
		Store:            opt.Store,
		Cache:            opt.Cache,
		Keyframe:         opt.Keyframe,
		SweepParallelism: opt.SweepParallelism,
		SweepOverlap:     opt.SweepOverlap,
		ResumeInterval:   opt.ResumeInterval,
		OnCaptured:       opt.OnCaptured,
		OnReplayed:       opt.OnReplayed,
	}
}

// CheckpointParams translates the plan into checkpoint capture
// parameters — the quantity the checkpoint store keys sweeps by. The
// sim session uses it to deduplicate concurrent sweeps for one key.
func (pl Plan) CheckpointParams() checkpoint.Params { return pl.params() }

// params translates a validated Plan into checkpoint capture parameters.
func (pl Plan) params() checkpoint.Params {
	p := checkpoint.Params{
		U:              pl.U,
		K:              pl.K,
		J:              pl.J,
		FunctionalWarm: pl.Warming == FunctionalWarming,
		Components:     pl.Components,
		MaxUnits:       pl.MaxUnits,
	}
	if pl.Warming != NoWarming {
		p.W = pl.W
	}
	return p
}

// RunPhases executes the same plan at several systematic phase
// offsets; results[i] corresponds to js[i] and is bit-identical to a
// dedicated Run at that offset. Under functional warming all offsets
// pay one functional sweep: a multi-offset capture records every
// offset's launch boundaries in a single pass (checkpoint.Params.Offsets)
// and the engine replays each offset's units from the shared snapshots;
// with a store attached the combined set is persisted and reused as one
// entry. Under detailed or no warming each offset runs its own in-place
// loop.
//
// The sweep accounting (FastFwdInsts/FastFwdTime) on every engine
// result echoes the one shared sweep; callers summing costs across
// phases should count it once.
func RunPhases(ctx context.Context, prog *program.Program, cfg uarch.Config, plan Plan, js []uint64, opt EngineOptions) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	results := make([]*Result, len(js))
	if !plan.Checkpointed() {
		for i, j := range js {
			pj := plan
			pj.J = j
			if err := pj.Validate(); err != nil {
				return nil, err
			}
			r, err := runLoop(ctx, prog, cfg, pj)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}

	params := plan.params()
	params.J = 0
	params.Offsets = js
	set, cached, err := engine.LoadOrCapture(ctx, prog, cfg, params, opt.engineOptions())
	if err != nil {
		return nil, err
	}
	for i, j := range js {
		onReplayed := opt.OnReplayed
		if opt.OnPhaseReplayed != nil {
			j := j
			onReplayed = func(replayed int, est stats.Estimate) {
				opt.OnPhaseReplayed(j, replayed, est)
			}
		}
		er, err := engine.RunSet(ctx, prog, cfg, plan.U, set.Offset(j), engine.Options{
			Workers:    opt.Workers,
			Alpha:      opt.Alpha,
			TargetEps:  opt.TargetEps,
			MinUnits:   opt.MinUnits,
			OnReplayed: onReplayed,
		})
		if err != nil {
			return nil, err
		}
		phasePlan := plan
		phasePlan.J = j
		r := engineResult(phasePlan, er, false)
		r.FastFwdInsts = set.SweepInsts
		r.FastFwdTime = set.SweepTime
		r.SweepCached = cached
		results[i] = r
	}
	return results, nil
}

// engineResult converts an engine result into the smarts Result shape.
// sweepInRun says the sweep's wall clock was part of this run's
// WallTime (a fresh streamed sweep); when false (store hit, or
// replaying a shared pre-captured set) er.SweepTime merely echoes a
// sweep paid elsewhere and the whole elapsed time is detailed work.
func engineResult(plan Plan, er *engine.Result, sweepInRun bool) *Result {
	// Wall-clock accounting: FastFwdTime is the capture sweep and
	// DetailedTime the remaining elapsed time, so the two sum to the
	// run's elapsed time just as on the serial path. (The engine's
	// per-worker CPU total, er.DetailedTime, would overstate elapsed
	// time by up to the worker count; under the streaming schedule the
	// sweep overlaps replay, so the split is attribution, not a
	// timeline.)
	detailedWall := er.WallTime
	if sweepInRun {
		detailedWall -= er.SweepTime
		if detailedWall < 0 {
			detailedWall = 0
		}
	}
	res := &Result{
		Plan:                plan,
		PopulationUnits:     er.PopulationUnits,
		MeasuredInsts:       er.MeasuredInsts,
		WarmingInsts:        er.WarmingInsts,
		FastFwdInsts:        er.SweepInsts,
		FastFwdTime:         er.SweepTime,
		DetailedTime:        detailedWall,
		SweepCached:         er.SweepCached,
		FastFwdResumedInsts: er.SweepResumedInsts,
		Units:               make([]UnitResult, len(er.Units)),
	}
	for i, u := range er.Units {
		res.Units[i] = UnitResult{
			Index:    u.Index,
			Cycles:   u.Cycles,
			EnergyNJ: u.EnergyNJ,
			CPI:      u.CPI,
			EPI:      u.EPI,
		}
	}
	return res
}
