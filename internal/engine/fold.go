package engine

import (
	"sort"

	"repro/internal/stats"
)

// Fold is the deterministic stream-order aggregation that turns replayed
// units into a result; the local collector and the fleet coordinator
// both fold through it. Units are offered keyed by their stream
// position, in any order, each position exactly once. A partial unit
// (the program ended inside it) cuts the stream at its position, and a
// met confidence target cuts it at the aggregator's in-order prefix
// length. Every rule is keyed by stream position, so the outcome is a
// pure function of the offered set: identical for any worker count,
// shard split, arrival interleaving or retry history.
//
// A Fold is not safe for concurrent use; the caller serializes offers.
type Fold struct {
	agg        *stats.StreamAggregator
	u          uint64
	alpha      float64
	onReplayed func(replayed int, est stats.Estimate)

	units  []RangeUnit
	stopAt int // in-order cutoff: units with Seq >= stopAt are dropped
	early  bool
	folded uint64 // in-order units reported through onReplayed
}

// NewFold starts a fold of units of u measured instructions. It takes
// Alpha, TargetEps, MinUnits and OnReplayed from opt; hint sizes the
// unit buffer.
func NewFold(u uint64, opt Options, hint int) *Fold {
	alpha := opt.Alpha
	if alpha == 0 {
		alpha = stats.Alpha997
	}
	return &Fold{
		agg:        stats.NewStreamAggregator(alpha, opt.TargetEps, opt.MinUnits),
		u:          u,
		alpha:      alpha,
		onReplayed: opt.OnReplayed,
		units:      make([]RangeUnit, 0, hint),
		stopAt:     int(^uint(0) >> 1),
	}
}

// Alpha returns the effective confidence parameter (Options.Alpha, or
// stats.Alpha997 when that is zero).
func (f *Fold) Alpha() float64 { return f.alpha }

// Offer folds one unit. It reports true when this unit let early
// termination lower the cutoff: units past it can no longer change the
// result, so the caller may stop producing them.
func (f *Fold) Offer(ru RangeUnit) bool {
	if ru.Partial {
		// The program ended inside this unit: keep everything before
		// it, drop it and everything after.
		if ru.Seq < f.stopAt {
			f.stopAt = ru.Seq
		}
		return false
	}
	f.units = append(f.units, ru)
	hitTarget := f.agg.Offer(uint64(ru.Seq), stats.Obs{CPI: ru.Res.CPI, EPI: ru.Res.EPI})
	if f.onReplayed != nil {
		if m := f.agg.Merged(); m > f.folded {
			f.folded = m
			f.onReplayed(int(m), f.agg.CPIEstimate())
		}
	}
	if hitTarget {
		if cut := int(f.agg.DoneAt()); cut < f.stopAt {
			f.stopAt = cut
			f.early = true
			return true
		}
	}
	return false
}

// EarlyStopped reports that the confidence target fixed the cutoff. The
// kept prefix is then complete by construction (it is an in-order
// prefix), so further offers cannot change the result.
func (f *Fold) EarlyStopped() bool { return f.early }

// Finish fills the measurement half of res: the kept units in stream
// order with their instruction and detailed-time accounting, and
// EarlyStopped.
func (f *Fold) Finish(res *Result) {
	sort.Slice(f.units, func(i, j int) bool { return f.units[i].Seq < f.units[j].Seq })
	for _, ru := range f.units {
		if ru.Seq >= f.stopAt {
			break
		}
		res.Units = append(res.Units, ru.Res)
		res.MeasuredInsts += f.u
		res.WarmingInsts += ru.Warming
		res.DetailedTime += ru.Elapsed
	}
	res.EarlyStopped = f.early
}
