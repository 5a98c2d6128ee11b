// SimPoint comparison: the paper's Figure 8 on one benchmark — SMARTS
// versus SimPoint estimating the same ground truth. The SMARTS side
// runs through the sim API; the SimPoint baseline is the comparison
// subject itself (internal/simpoint).
//
//	go run ./examples/simpoint_compare
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"repro/internal/simpoint"
	"repro/sim"
)

func main() {
	sess, err := sim.Open()
	if err != nil {
		log.Fatal(err)
	}
	defer sess.Close()
	ctx := context.Background()

	const bench = "gccx" // the paper's worst SimPoint case is gcc-2
	const length = 2_000_000
	prog, err := sess.Workload(bench, length)
	if err != nil {
		log.Fatal(err)
	}
	cfg := sim.Config8Way()

	ref, err := sess.Reference(ctx, bench, length, 1000, cfg)
	if err != nil {
		log.Fatal(err)
	}
	truth := ref.TrueCPI()
	fmt.Printf("%s: true CPI %.4f\n\n", prog.Name, truth)

	// SimPoint: profile 50k-instruction intervals, cluster with BIC
	// model selection up to K=10, simulate one representative per
	// cluster with cold state.
	spRes, sel, err := simpoint.Run(prog, cfg, 50_000, 10, 42)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("SimPoint (K=%d points):  CPI %.4f  error %+.1f%%  (%d insts detailed)\n",
		sel.K, spRes.CPI, 100*(spRes.CPI-truth)/truth, spRes.SimulatedInsts)

	// SMARTS with the same detailed-instruction budget, through the
	// service API.
	budgetUnits := spRes.SimulatedInsts / (1000 + sim.RecommendedW(cfg))
	rep, err := sess.Run(ctx, sim.NewRequest(bench,
		sim.Length(length),
		sim.Units(budgetUnits),
	))
	if err != nil {
		log.Fatal(err)
	}
	smRes := rep.Result()
	est := rep.CPI
	fmt.Printf("SMARTS  (n=%d units):  CPI %.4f  error %+.2f%%  (%d insts detailed)\n",
		est.N, est.Mean, 100*(est.Mean-truth)/truth, smRes.MeasuredInsts+smRes.WarmingInsts)
	fmt.Printf("\nSMARTS additionally bounds its own error: CI ±%.1f%% at 99.7%% confidence ", est.RelCI*100)
	if math.Abs(est.Mean-truth)/truth <= est.RelCI+0.02 {
		fmt.Println("(holds here).")
	} else {
		fmt.Println("(violated here — investigate!).")
	}
	fmt.Println("SimPoint offers no confidence bound; its error is unknowable without the truth.")
}
