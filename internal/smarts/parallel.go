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
	engine.Options
	// OnPhaseReplayed, when non-nil, observes multi-offset replay
	// progress with the phase offset attached; RunPhases then
	// invokes it instead of OnReplayed for each offset's replay.
	OnPhaseReplayed func(j uint64, replayed int, est stats.Estimate)
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
	set, cached, err := engine.LoadOrCapture(ctx, prog, cfg, params, opt.Options)
	if err != nil {
		return nil, err
	}
	for i, j := range js {
		eo := opt.Options
		if opt.OnPhaseReplayed != nil {
			eo.OnReplayed = func(replayed int, est stats.Estimate) {
				opt.OnPhaseReplayed(j, replayed, est)
			}
		}
		er, err := engine.RunSet(ctx, prog, cfg, plan.U, set.Offset(j), eo)
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
	// run's elapsed time as they do on the in-place loop. (The engine's
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
	return &Result{
		Plan:                plan,
		PopulationUnits:     er.PopulationUnits,
		MeasuredInsts:       er.MeasuredInsts,
		WarmingInsts:        er.WarmingInsts,
		FastFwdInsts:        er.SweepInsts,
		FastFwdTime:         er.SweepTime,
		DetailedTime:        detailedWall,
		SweepCached:         er.SweepCached,
		FastFwdResumedInsts: er.SweepResumedInsts,
		Units:               er.Units,
	}
}
