package engine_test

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/program"
	"repro/internal/uarch"
)

// rangeSet captures the functional-warming launch states ReplayRange
// tests replay, and the program they were captured from.
func rangeSet(t *testing.T) (*program.Program, *checkpoint.Set, checkpoint.Params) {
	t.Helper()
	prog := genProg(t, "gzipx", 300_000)
	p := checkpoint.Params{U: 1000, W: 2000, K: 10, FunctionalWarm: true}
	set, err := checkpoint.Capture(context.Background(), prog, uarch.Config8Way(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Units) < 20 {
		t.Fatalf("too few units: %d", len(set.Units))
	}
	return prog, set, p
}

// TestReplayRangeMatchesRunSet: concatenating ReplayRange over a random
// contiguous split of [0, n) yields RunSet's units and instruction
// accounting (wall-clock fields excluded), in ascending Seq order, at
// one and at several workers.
func TestReplayRangeMatchesRunSet(t *testing.T) {
	prog, set, p := rangeSet(t)
	cfg := uarch.Config8Way()
	bg := context.Background()
	ref, err := engine.RunSet(bg, prog, cfg, p.U, set, engine.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	n := len(set.Units)
	rng := rand.New(rand.NewSource(7))
	for _, workers := range []int{1, 3} {
		// Random cut points; the last range may overrun the set (clamped).
		cuts := []int{0}
		for lo := 0; lo < n; {
			lo += 1 + rng.Intn(n/3)
			if lo > n {
				lo = n + 5
			}
			cuts = append(cuts, lo)
		}
		got := &engine.Result{}
		next := 0
		for i := 1; i < len(cuts); i++ {
			err := engine.ReplayRange(bg, prog, cfg, p.U, set, cuts[i-1], cuts[i], engine.Options{Workers: workers},
				func(ru engine.RangeUnit) bool {
					if ru.Seq != next || ru.Partial {
						t.Fatalf("workers=%d: got seq %d (partial %v), want %d", workers, ru.Seq, ru.Partial, next)
					}
					next++
					got.Units = append(got.Units, ru.Res)
					got.MeasuredInsts += p.U
					got.WarmingInsts += ru.Warming
					return true
				})
			if err != nil {
				t.Fatal(err)
			}
		}
		if !reflect.DeepEqual(got.Units, ref.Units) || got.MeasuredInsts != ref.MeasuredInsts || got.WarmingInsts != ref.WarmingInsts {
			t.Fatalf("workers=%d cuts=%v: ranges diverged from RunSet: %d units (%d/%d insts), want %d (%d/%d)",
				workers, cuts, len(got.Units), got.MeasuredInsts, got.WarmingInsts,
				len(ref.Units), ref.MeasuredInsts, ref.WarmingInsts)
		}
	}
}

// TestReplayRangePartialUnit: a unit the program ends inside is emitted
// as Partial. Measuring the last captured unit for as many instructions
// as the whole program runs it past the program's end.
func TestReplayRangePartialUnit(t *testing.T) {
	prog, set, _ := rangeSet(t)
	n := len(set.Units)
	var got []engine.RangeUnit
	err := engine.ReplayRange(context.Background(), prog, uarch.Config8Way(), prog.Length, set, n-1, n, engine.Options{},
		func(ru engine.RangeUnit) bool {
			got = append(got, ru)
			return true
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || !got[0].Partial || got[0].Seq != n-1 {
		t.Fatalf("want unit %d partial, got %+v", n-1, got)
	}
}

// TestReplayRangeEmitStop: emit returning false stops the replay, and
// ReplayRange returns nil once the in-flight units drain, without
// emitting again.
func TestReplayRangeEmitStop(t *testing.T) {
	prog, set, p := rangeSet(t)
	emitted := 0
	err := engine.ReplayRange(context.Background(), prog, uarch.Config8Way(), p.U, set, 0, len(set.Units), engine.Options{Workers: 3},
		func(engine.RangeUnit) bool {
			emitted++
			return emitted < 3
		})
	if err != nil {
		t.Fatalf("stopped replay returned %v, want nil", err)
	}
	if emitted != 3 {
		t.Fatalf("emit called %d times after returning false on the 3rd", emitted)
	}
}

// TestReplayRangeCancelled: cancelling ctx mid-replay stops dispatch and
// returns ctx.Err().
func TestReplayRangeCancelled(t *testing.T) {
	prog, set, p := rangeSet(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	err := engine.ReplayRange(ctx, prog, uarch.Config8Way(), p.U, set, 0, len(set.Units), engine.Options{Workers: 2},
		func(engine.RangeUnit) bool {
			cancel()
			return true
		})
	if err != context.Canceled {
		t.Fatalf("cancelled replay returned %v, want %v", err, context.Canceled)
	}
}
