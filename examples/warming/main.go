// Warming: reproduce the paper's Section 4 warming study on one
// benchmark — how measurement bias responds to detailed warming W, with
// and without functional warming.
//
// The run prints three regimes:
//
//  1. No warming at all: sampling units start on stale microarchitectural
//     state and an empty pipeline; bias is large (the paper reports up to
//     50% for 10k-instruction units).
//
//  2. Detailed warming only: bias falls as W grows, at growing cost.
//
//  3. Functional warming + small W: bias is bounded to ~2% at W=2000
//     because caches and predictors never go stale (Table 5).
//
//     go run ./examples/warming
package main

import (
	"context"
	"fmt"
	"log"

	"repro/sim"
)

func main() {
	sess, err := sim.Open()
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	ctx := context.Background()

	const bench = "parserx"
	const length = 1_500_000
	cfg := sim.Config8Way()
	prog, err := sess.Workload(bench, length)
	if err != nil {
		log.Fatal(err)
	}

	// Ground truth: the full-stream detailed simulation.
	ref, err := sess.Reference(ctx, bench, length, 1000, cfg)
	if err != nil {
		log.Fatal(err)
	}
	truth := ref.TrueCPI()
	fmt.Printf("%s: true CPI %.4f (full detailed simulation of %d instructions)\n\n",
		prog.Name, truth, prog.Length)

	// Per-unit truth lets us compare each measured unit against its own
	// reference value, isolating warming bias from sampling noise (the
	// same matched-unit method the Table 4/5 experiments use).
	trueUnits, err := ref.UnitCPIs(1000)
	if err != nil {
		log.Fatal(err)
	}

	// Wide unit spacing so warming windows never merge. Runs without
	// functional warming execute on the in-place loop, so units observe
	// the previous unit's leftover state — the effect under study.
	const n = 60
	measure := func(mode sim.WarmingMode, w uint64) (float64, float64) {
		rep, err := sess.Run(ctx, sim.NewRequest(bench,
			sim.Length(length),
			sim.Units(n),
			sim.Warming(mode),
			sim.Warmup(w),
		))
		if err != nil {
			log.Fatal(err)
		}
		res := rep.Result()
		var measured, want float64
		for _, u := range res.Units {
			if u.Index < uint64(len(trueUnits)) {
				measured += u.CPI
				want += trueUnits[u.Index]
			}
		}
		detailedPct := 100 * float64(res.MeasuredInsts+res.WarmingInsts) / float64(prog.Length)
		return (measured - want) / want, detailedPct
	}

	bias, pct := measure(sim.NoWarming, 0)
	fmt.Printf("no warming:                  bias %+7.2f%%  (detail-simulated %4.1f%%)\n", bias*100, pct)

	for _, w := range []uint64{500, 2000, 8000} {
		bias, pct := measure(sim.DetailedWarming, w)
		fmt.Printf("detailed warming W=%-6d    bias %+7.2f%%  (detail-simulated %4.1f%%)\n", w, bias*100, pct)
	}

	recW := sim.RecommendedW(cfg)
	bias, pct = measure(sim.FunctionalWarming, recW)
	fmt.Printf("functional warming W=%d:    bias %+7.2f%%  (detail-simulated %4.1f%%)\n",
		recW, bias*100, pct)
}
