package dist

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/uarch"
)

// synthUnits builds a synthetic replay stream of n units with randomized
// observations; partialAt (when >= 0) marks that position as the
// program-ended-inside-it partial unit.
func synthUnits(rng *rand.Rand, n, partialAt int) []wireUnit {
	units := make([]wireUnit, n)
	for i := range units {
		cpi := 0.8 + rng.Float64()
		u := wireUnit{
			Seq:       i,
			Index:     uint64(i) * 7,
			Cycles:    uint64(1000 * cpi),
			EnergyNJ:  500 + rng.Float64()*100,
			CPI:       cpi,
			EPI:       0.5 + rng.Float64()*0.1,
			Warming:   uint64(rng.Intn(5000)),
			ElapsedNs: int64(rng.Intn(1_000_000)),
		}
		if i == partialAt {
			u = wireUnit{Seq: i, Partial: true}
		}
		units[i] = u
	}
	return units
}

// shardedOrder returns an arrival order of the stream positions [0, n)
// split into at most parts contiguous shards: a random interleaving that
// preserves only per-shard order, exactly what concurrent shard streams
// deliver.
func shardedOrder(rng *rand.Rand, n, parts int) []int {
	shards := splitRange(n, parts)
	next := make([]int, len(shards))
	order := make([]int, 0, n)
	for len(order) < n {
		s := rng.Intn(len(shards))
		if sr := shards[s]; sr.lo+next[s] < sr.hi {
			order = append(order, sr.lo+next[s])
			next[s]++
		}
	}
	return order
}

// foldWire offers units in the given order through the engine fold,
// converting each at the wire boundary as the coordinator does.
func foldWire(units []wireUnit, order []int, u uint64, opt engine.Options) *engine.Result {
	f := engine.NewFold(u, opt, len(units))
	for _, i := range order {
		f.Offer(units[i].rangeUnit())
	}
	res := &engine.Result{}
	f.Finish(res)
	return res
}

// TestMergeOrderInvariance is the shard-merge property test: splitting a
// replay stream into K contiguous ranges and folding the units in any
// interleaved arrival order reproduces the unsharded (single-range,
// in-order) fold byte for byte — including the early-termination cutoff
// and partial-unit truncation. On a real captured set, the units
// ReplayRange streams, sent through the wire form and folded in a
// sharded interleaving, reproduce RunSet's result.
func TestMergeOrderInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const planU = 1000

	for trial := 0; trial < 300; trial++ {
		n := 20 + rng.Intn(120)
		partialAt := -1
		if rng.Intn(3) == 0 {
			partialAt = rng.Intn(n)
		}
		var opt engine.Options
		if rng.Intn(2) == 0 {
			opt.TargetEps = 0.02 + rng.Float64()*0.3
			opt.MinUnits = uint64(2 + rng.Intn(10))
		}
		units := synthUnits(rng, n, partialAt)

		inOrder := make([]int, n)
		for i := range inOrder {
			inOrder[i] = i
		}
		want := foldWire(units, inOrder, planU, opt)
		// The partial unit cuts the stream: only the units before it
		// survive, fewer when early termination cut first.
		keep := n
		if partialAt >= 0 {
			keep = partialAt
		}
		if len(want.Units) > keep || (!want.EarlyStopped && len(want.Units) != keep) {
			t.Fatalf("trial %d (n=%d eps=%g partial=%d): in-order fold kept %d units (early stop %v), want %d",
				trial, n, opt.TargetEps, partialAt, len(want.Units), want.EarlyStopped, keep)
		}
		parts := 1 + rng.Intn(8)
		got := foldWire(units, shardedOrder(rng, n, parts), planU, opt)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (n=%d shards=%d eps=%g partial=%d): sharded fold diverged:\n got %+v\nwant %+v",
				trial, n, parts, opt.TargetEps, partialAt, got, want)
		}
	}

	t.Run("captured-set", func(t *testing.T) {
		prog := testProg(t)
		cfg := uarch.Config8Way()
		bg := context.Background()
		p := checkpoint.Params{U: planU, W: 2000, K: 10, FunctionalWarm: true}
		set, err := checkpoint.Capture(bg, prog, cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		n := len(set.Units)
		var units []wireUnit
		err = engine.ReplayRange(bg, prog, cfg, p.U, set, 0, n, engine.Options{Workers: 2}, func(ru engine.RangeUnit) bool {
			units = append(units, *wireUnitFrom(ru))
			return true
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range []engine.Options{{}, {TargetEps: 0.3, MinUnits: 8}} {
			ref, err := engine.RunSet(bg, prog, cfg, p.U, set, engine.Options{Workers: 3, TargetEps: opt.TargetEps, MinUnits: opt.MinUnits})
			if err != nil {
				t.Fatal(err)
			}
			if opt.TargetEps > 0 && !ref.EarlyStopped {
				t.Fatalf("eps=%g: RunSet did not stop early; the case tests nothing", opt.TargetEps)
			}
			got := foldWire(units, shardedOrder(rng, n, 5), p.U, opt)
			// Wall-clock fields are excluded: RunSet and ReplayRange timed
			// different replays of the same units.
			want := &engine.Result{
				Units:         ref.Units,
				MeasuredInsts: ref.MeasuredInsts,
				WarmingInsts:  ref.WarmingInsts,
				EarlyStopped:  ref.EarlyStopped,
			}
			got.DetailedTime = 0
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("eps=%g: folded shard streams diverged from RunSet:\n got %+v\nwant %+v", opt.TargetEps, got, want)
			}
		}
	})
}

// TestSplitRange: shard ranges tile [0, n) contiguously, are near-even,
// and never exceed the unit count.
func TestSplitRange(t *testing.T) {
	for n := 0; n <= 40; n++ {
		for parts := -1; parts <= n+3; parts++ {
			shards := splitRange(n, parts)
			if n <= 0 {
				if shards != nil {
					t.Fatalf("splitRange(%d,%d) = %v, want nil", n, parts, shards)
				}
				continue
			}
			lo := 0
			for _, sr := range shards {
				if sr.lo != lo || sr.hi <= sr.lo {
					t.Fatalf("splitRange(%d,%d): bad range %+v at lo=%d", n, parts, sr, lo)
				}
				lo = sr.hi
			}
			if lo != n {
				t.Fatalf("splitRange(%d,%d) covers [0,%d), want [0,%d)", n, parts, lo, n)
			}
			want := parts
			if want < 1 {
				want = 1
			}
			if want > n {
				want = n
			}
			if len(shards) != want {
				t.Fatalf("splitRange(%d,%d) produced %d shards, want %d", n, parts, len(shards), want)
			}
		}
	}
}
