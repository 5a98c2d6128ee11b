package engine

import (
	"context"
	"fmt"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/program"
	"repro/internal/uarch"
)

// RangeUnit is one replayed unit keyed by its stream position: what
// ReplayRange emits and what a Fold consumes.
type RangeUnit struct {
	// Seq is the unit's position in the captured stream (the global
	// stream index shard merges are keyed by).
	Seq int
	// Res is the unit's measurement; meaningless when Partial is set.
	Res UnitResult
	// Warming is the number of detailed-warming instructions the replay
	// executed before measurement.
	Warming uint64
	// Elapsed is the unit's detailed-replay CPU time.
	Elapsed time.Duration
	// Partial reports the program ended inside the unit; a Fold drops
	// it and everything after it (trailing units of a range may still
	// be emitted).
	Partial bool
}

// ReplayRange replays the units [lo, hi) of set — positions in the
// captured stream — across opt.Workers workers, calling emit for every
// unit in ascending Seq order. It is the distributed service's worker
// entry point: a shard replays only its contiguous range, streams each
// result the moment its stream-order predecessor has been emitted, and
// the coordinator folds shards by Seq through the same Fold a
// single-machine run uses.
//
// The range is clamped to the set (callers size shards from
// Params.ExpectedUnits, which can exceed the captured count when the
// program halts early); an empty range emits nothing and returns nil.
// set is shared and read-only — materialization never mutates the
// snapshots — so any number of concurrent ReplayRange calls may replay
// overlapping ranges of one Set.
//
// emit returning false stops the replay early (the consumer's stream
// died or the merge was cut short); ReplayRange then returns nil after
// the in-flight units drain. ctx cancellation likewise stops dispatch
// and returns ctx.Err().
func ReplayRange(ctx context.Context, prog *program.Program, cfg uarch.Config, u uint64, set *checkpoint.Set, lo, hi int, opt Options, emit func(RangeUnit) bool) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return err
	}
	if u == 0 {
		return fmt.Errorf("engine: zero sampling unit size")
	}
	if lo < 0 {
		lo = 0
	}
	if hi > len(set.Units) {
		hi = len(set.Units)
	}
	if lo >= hi {
		return ctx.Err()
	}
	nw := opt.workers()
	if nw > hi-lo {
		nw = hi - lo
	}

	// Reorder completions into ascending Seq before emitting, so the
	// consumer observes the deterministic stream order regardless of
	// worker scheduling.
	p := newPool(ctx, prog, cfg, u, nw)
	pending := make(map[int]RangeUnit, nw)
	next := lo
	stopped := false
	err := p.run(func(send func(int, *checkpoint.Unit) bool) {
		for seq := lo; seq < hi && send(seq, set.Units[seq]); seq++ {
		}
	}, func(ru RangeUnit) {
		pending[ru.Seq] = ru
		for !stopped {
			nd, ok := pending[next]
			if !ok || ctx.Err() != nil {
				break // a cancelled replay returns ctx.Err(); emit no more
			}
			delete(pending, next)
			next++
			if !emit(nd) {
				stopped = true
				p.stop()
			}
		}
	})
	switch {
	case stopped:
		return nil
	case err != nil:
		return err
	}
	return ctx.Err()
}
