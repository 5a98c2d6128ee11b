// Command smartsweep regenerates the SMARTS paper's evaluation artifacts
// (Figures 2-8, Tables 4-6) at a chosen scale, through the sim service
// API (experiment requests against one shared session).
//
// Usage:
//
//	smartsweep -experiment fig6 -config 8-way -scale small
//	smartsweep -experiment all -scale tiny
//	smartsweep -experiment table5 -ckpt-dir /tmp/ckpt   # sweeps persisted & reused
//
// Functional-warming runs use the checkpointed engine with -parallel
// workers (default: one per core); the detailed- and no-warming runs of
// Table 4 use the in-place loop.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/sim"
	"repro/sim/simflag"
)

func main() {
	var (
		machine = simflag.RegisterMachine(flag.CommandLine)
		engine  = simflag.RegisterEngine(flag.CommandLine)
		exp     = flag.String("experiment", "all", "experiment id (fig2..fig8, table4..table6, or 'all')")
		scale   = flag.String("scale", "small", "experiment scale: tiny, small, or medium")
	)
	flag.Parse()

	cfg, err := machine.Config()
	if err != nil {
		fatal(err)
	}
	sess, err := sim.Open(engine.SessionOptions()...)
	if err != nil {
		fatal(err)
	}
	defer sess.Close()
	defer simflag.ReportStore(sess)

	names := []string{*exp}
	if *exp == "all" {
		names = sim.ExperimentNames()
	}
	for _, name := range names {
		start := time.Now()
		fmt.Printf("==== %s (scale %s) ====\n", name, *scale)
		req := sim.NewExperiment(name, sim.AtScale(*scale), sim.Machine(cfg),
			sim.StreamTo(os.Stdout))
		engine.Apply(req)
		if _, err := sess.Run(context.Background(), req); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		fmt.Printf("[%s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smartsweep:", err)
	os.Exit(1)
}
