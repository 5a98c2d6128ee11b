// Command smartsim is the SMARTSim equivalent: a sampling
// microarchitecture simulator. It runs one workload of the synthetic
// suite under a chosen machine configuration and sampling plan and
// prints the CPI and EPI estimates with their confidence, or — with
// -procedure — executes the paper's full two-step estimation procedure.
// It is a thin shell over the sim service API (sim.Open / Session.Run).
//
// Usage:
//
//	smartsim -bench gccx -config 8-way -n 400
//	smartsim -bench mcfx -u 1000 -w 2000 -warming functional -n 1000
//	smartsim -bench ammpx -procedure -eps 0.03
//	smartsim -bench gccx -n 2000 -parallel 4             # engine with 4 replay workers
//	smartsim -bench gccx -n 2000 -ckpt-dir ~/.smarts     # sweep saved; reruns skip it
//	smartsim -bench gccx -warming detailed -w 4000       # in-place loop (paper Section 4.3)
//
// The warming mode picks the executor: functional warming runs on the
// checkpointed engine with -parallel workers (default: one per core);
// detailed and no warming run on the in-place loop.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"repro/sim"
	"repro/sim/simflag"
)

func main() {
	var (
		workload  = simflag.RegisterWorkload(flag.CommandLine)
		machine   = simflag.RegisterMachine(flag.CommandLine)
		plan      = simflag.RegisterPlan(flag.CommandLine)
		engine    = simflag.RegisterEngine(flag.CommandLine)
		procedure = flag.Bool("procedure", false, "run the full two-step procedure")
		eps       = flag.Float64("eps", 0.03, "target relative confidence interval")
	)
	flag.Parse()

	if workload.ListAndExit() {
		return
	}
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

	req := sim.NewRequest(*workload.Bench, sim.Machine(cfg), sim.Length(*workload.Length))
	if err := plan.Apply(req); err != nil {
		fatal(err)
	}
	engine.Apply(req)
	if *procedure {
		req.Procedure = &sim.ProcedureSpec{Eps: *eps}
	}

	prog, err := sess.Workload(req.Workload, req.Length)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("workload %s: %d instructions, %d sampling units of %d\n",
		prog.Name, prog.Length, prog.Length/req.U, req.U)

	rep, err := sess.Run(context.Background(), req)
	if err != nil {
		fatal(err)
	}

	if pr := rep.Procedure; pr != nil {
		fmt.Printf("initial run  (n=%d): CPI %v\n", pr.Initial.CPISample().N(), pr.InitialCPI)
		if pr.Tuned != nil {
			fmt.Printf("tuned run  (n=%d): CPI %v\n", pr.Tuned.CPISample().N(), pr.TunedCPI)
		} else {
			fmt.Println("initial run met the confidence target; no second run needed")
		}
		report(rep)
		return
	}
	res := rep.Result()
	fmt.Printf("plan: U=%d W=%d k=%d j=%d warming=%v parallel=%d\n",
		res.Plan.U, res.Plan.W, res.Plan.K, res.Plan.J, res.Plan.Warming, *engine.Parallel)
	report(rep)
}

func report(rep *sim.Report) {
	res := rep.Result()
	cpi := res.CPIEstimate(sim.Alpha997)
	epi := res.EPIEstimate(sim.Alpha997)
	fmt.Printf("CPI estimate: %v\n", cpi)
	fmt.Printf("EPI estimate: %v nJ\n", epi)
	fmt.Printf("instructions: %d measured, %d detailed warming, %d fast-forwarded\n",
		res.MeasuredInsts, res.WarmingInsts, res.FastFwdInsts)
	if res.SweepCached {
		fmt.Printf("time: %v detailed (functional sweep skipped: launch states loaded from the checkpoint store)\n",
			res.DetailedTime.Round(1e6))
		return
	}
	fmt.Printf("time: %v fast-forward, %v detailed\n",
		res.FastFwdTime.Round(1e6), res.DetailedTime.Round(1e6))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "smartsim:", err)
	os.Exit(1)
}
