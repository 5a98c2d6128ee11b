package smarts_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/program"
	"repro/internal/smarts"
	"repro/internal/stats"
	"repro/internal/uarch"
)

// Divergence bounds for TestEngineMatchesLoop, derived from a
// measurement: at divergeLen instructions and divergeUnits target units
// (42-53 measured units per benchmark), the worst |CPI-mean gap| across
// the suite is 0.474% and the worst |EPI-mean gap| 0.167%, both on
// 16-way lucasx; every 8-way benchmark agrees exactly. Both executors
// are deterministic, so these are exact figures for the current code,
// not samples. The bounds are twice them, leaving room for a modeling
// change that moves the gap without turning it into bias; the paper's
// own residual-bias allowance for functional warming is 2% (Section
// 5.2). The length keeps the test near 14 s on two cores.
//
// The bound covers plans whose warming windows do not overlap, W <=
// (k-1)·U, as here. In denser plans the loop truncates each unit's
// detailed warming to the gap after the previous unit, while the engine
// gives every unit its full W, so the executors measure differently by
// design: Figure 6's k=1 tuned runs (small scale) move by up to 1.8
// points of CPI error, toward the reference.
const (
	divergeLen       = 200_000
	divergeUnits     = 40
	maxCPIDivergence = 0.0095
	maxEPIDivergence = 0.0033
)

// TestEngineMatchesLoop bounds how far the two executors drift apart
// under functional warming, the one mode both run: every suite
// benchmark on both machine configurations, measured by the engine (the
// executor Run selects) and by the in-place loop (the reference). They
// differ only in launch state — the engine launches each unit from
// sweep state, the loop from the state its previous unit's detailed run
// left behind — which is the in-order-versus-out-of-order update gap
// the paper treats as residual bias (Section 4.5).
func TestEngineMatchesLoop(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole suite twice on both machines")
	}
	for _, cfg := range []uarch.Config{uarch.Config8Way(), uarch.Config16Way()} {
		for _, name := range program.Names() {
			cfg, name := cfg, name
			t.Run(cfg.Name+"/"+name, func(t *testing.T) {
				t.Parallel()
				ctx := context.Background()
				p := genBench(t, name, divergeLen)
				plan := smarts.PlanForN(p.Length, 1000, smarts.RecommendedW(cfg), divergeUnits, smarts.FunctionalWarming, 0)
				eng, err := smarts.Run(ctx, p, cfg, plan, smarts.EngineOptions{})
				if err != nil {
					t.Fatal(err)
				}
				loop, err := smarts.RunLoop(ctx, p, cfg, plan)
				if err != nil {
					t.Fatal(err)
				}
				if len(eng.Units) != len(loop.Units) {
					t.Fatalf("engine measured %d units, loop %d", len(eng.Units), len(loop.Units))
				}
				cpiGap := relGap(eng.CPIEstimate(stats.Alpha997).Mean, loop.CPIEstimate(stats.Alpha997).Mean)
				epiGap := relGap(eng.EPIEstimate(stats.Alpha997).Mean, loop.EPIEstimate(stats.Alpha997).Mean)
				t.Logf("n=%d: CPI gap %+.4f%%, EPI gap %+.4f%%", len(eng.Units), cpiGap*100, epiGap*100)
				if math.Abs(cpiGap) > maxCPIDivergence || math.Abs(epiGap) > maxEPIDivergence {
					t.Errorf("engine-vs-loop gap CPI %+.4f%% EPI %+.4f%%, bounds ±%.4f%% / ±%.4f%%",
						cpiGap*100, epiGap*100, maxCPIDivergence*100, maxEPIDivergence*100)
				}
			})
		}
	}
}

func relGap(got, ref float64) float64 { return (got - ref) / ref }
