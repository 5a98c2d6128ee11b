// Confidence: the paper's exact two-step estimation procedure
// (Section 5.1) across several benchmarks, through the sim API.
//
// For each workload, run once with a generic n_init; if the achieved
// 99.7% confidence interval is wider than ±3%, compute n_tuned from the
// measured coefficient of variation and rerun (sim.Calibrate). The
// output mirrors the discussion around the paper's Figure 6 (ammp, vpr
// and gcc-2 needing n_tuned of 66,531 / 23,321 / 21,789 at full scale).
//
//	go run ./examples/confidence
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

	const nInit = 300
	const benchLen = 1_500_000
	const eps = 0.03

	for _, name := range []string{"swimx", "gzipx", "gccx", "ammpx"} {
		rep, err := sess.Run(context.Background(), sim.NewRequest(name,
			sim.Length(benchLen),
			sim.Units(nInit),
			sim.Calibrate(eps),
		))
		if err != nil {
			log.Fatal(err)
		}

		pr := rep.Procedure
		fmt.Printf("%s (V̂=%.2f):\n", name, pr.InitialCPI.CV)
		fmt.Printf("  step 1: n=%d  -> CPI %v\n", pr.Initial.CPISample().N(), pr.InitialCPI)
		if pr.Tuned == nil {
			fmt.Printf("  ±%.0f%% target met on the first run\n\n", eps*100)
			continue
		}
		fmt.Printf("  step 2: n_tuned=%d -> CPI %v\n\n", pr.NTuned, pr.TunedCPI)
	}
}
