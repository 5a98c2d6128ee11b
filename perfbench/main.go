// Command perfbench is the repository's benchmark. It drives real
// sampling requests through sim.Session.Run and dist.Client.Run on the
// checkpointed engine, checks their outputs, and prints one JSON result
// line. With --trace 1 it also calls each layer's public entry points
// from its own code, as the engine does for one request, and reports the
// per-layer metrics. README.md lists the workloads, the metrics and which
// end-to-end metric each layer metric should move.
//
// Usage, from the repository root (run.sh builds the command first):
//
//	bash perfbench/run.sh --workload sweep-bound --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/sim"
)

const (
	pairedRequests = 2 // requests on the other side of the local/fleet pair
	// minRequests are timed however short --seconds is; a traced run
	// times only these.
	minRequests = 3
	// A run repeats set-up at least setupReps times and for at least
	// minSetupTime, so the median of a set-up of a few milliseconds is
	// still steady.
	setupReps    = 3
	minSetupTime = time.Second
)

func main() {
	os.Exit(run(os.Args[1:]))
}

type options struct {
	root, workload string
	seed           uint64
	seconds        int
	trace          bool
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	root := fs.String("root", ".", "repository checkout to run in; outputs go to its .bench_build")
	name := fs.String("workload", "", "workload to run: sweep-bound, replay-bound or fleet-loopback")
	seed := fs.Uint64("seed", 1, "workload seed; selects the sampling phase offset j = seed mod k")
	seconds := fs.Int("seconds", 20, "seconds of measured requests")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be at least 1 and --trace 0 or 1")
		return 2
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	opt := options{root: abs, workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1}
	res, info, err := execute(context.Background(), opt)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"info": info}); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts the checked operations of a run: requests, mirrored units
// and cross-run comparisons.
type tally struct {
	attempted, failed int
	problems          []string
}

func (t *tally) check(ok bool, format string, args ...any) {
	bad := 0
	if !ok {
		bad = 1
	}
	t.checkN(1, bad, format, args...)
}

// checkN counts n operations of which bad failed.
func (t *tally) checkN(n, bad int, format string, args ...any) {
	t.attempted += n
	if bad > 0 {
		t.failed += bad
		msg := fmt.Sprintf(format, args...)
		t.problems = append(t.problems, msg)
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", msg)
	}
}

func execute(ctx context.Context, opt options) (*result, map[string]any, error) {
	w, err := workloadByName(opt.workload)
	if err != nil {
		return nil, nil, err
	}
	out := filepath.Join(opt.root, ".bench_build", "perfbench")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, nil, err
	}
	work, err := os.MkdirTemp(out, "run-")
	if err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(work)
	digest, err := sourceDigest(opt.root)
	if err != nil {
		return nil, nil, err
	}
	b, err := newBench(w, opt.seed, work)
	if err != nil {
		return nil, nil, err
	}
	defer b.close()
	expected := sim.ResolvePlan(b.request(nil), b.prog).CheckpointParams().ExpectedUnits(b.prog.Length / unitSize)

	var t tally
	var want *sim.Report // the report every request must reproduce bit for bit
	var first *counts    // the counts every measured request must repeat
	checkReport := func(rep *sim.Report, c *counts, what string) {
		if want == nil {
			want = rep
		}
		if c != nil && first == nil {
			first = c
		}
		t.check(sameReport(want, rep) && len(rep.Result().Units) == expected && (c == nil || *c == *first),
			"%s: report or counts differ from the first request's, or %d units where the plan selects %d",
			what, len(rep.Result().Units), expected)
	}

	var setups []float64
	for setupStart := time.Now(); len(setups) < setupReps || time.Since(setupStart) < minSetupTime; {
		// Drop the previous set-up, garbage included, so neither its
		// teardown nor its memory counts toward this one.
		b.close()
		runtime.GC()
		start := time.Now()
		rep, err := b.setup(ctx)
		setups = append(setups, time.Since(start).Seconds())
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		if rep != nil {
			checkReport(rep, nil, "set-up request")
		}
	}
	if w.fleet {
		// The fleet's reports must equal the local engine's bit for bit.
		local, err := b.pairLocal(ctx)
		if err != nil {
			return nil, nil, fmt.Errorf("paired local run: %w", err)
		}
		checkReport(local, nil, "paired local run")
	}

	var samples []*sample
	start := time.Now()
	for len(samples) < minRequests || (!opt.trace && time.Since(start) < time.Duration(opt.seconds)*time.Second) {
		s, err := b.measure(ctx)
		if err != nil {
			t.check(false, "request: %v", err)
			if t.failed > minRequests {
				return nil, nil, fmt.Errorf("requests keep failing: %w", err)
			}
			continue
		}
		checkReport(s.rep, &s.counts, "request")
		samples = append(samples, s)
	}
	rss := peakRSSMB()

	countsPath := filepath.Join(out, "counts", fmt.Sprintf("%s-%s-%d", digest, w.name, opt.seed))
	same, err := sameAsLastRun(countsPath+"-requests.json", first)
	if err != nil {
		return nil, nil, err
	}
	t.check(same, "request counts differ from an earlier run of these sources at this seed")

	walls := make([]float64, len(samples))
	cpus := make([]float64, len(samples))
	for i, s := range samples {
		walls[i] = s.wall.Seconds()
		cpus[i] = s.cpu.Seconds()
	}
	wall := median(walls)
	res := &result{}
	if opt.trace {
		if res.Metrics, err = traced(ctx, b, opt, out, digest, samples, walls, cpus, want, &t); err != nil {
			return nil, nil, err
		}
	} else {
		res.Metrics = map[string]metric{
			"setup_s":     {median(setups), "s"},
			"wall_s":      {wall, "s"},
			"units_per_s": {float64(first.Units) / wall, "1/s"},
			"sim_mips":    {float64(b.prog.Length) / wall / 1e6, "MIPS"},
			"peak_rss_mb": {rss, "MiB"},
		}
	}
	info := map[string]any{
		"workload":    w.name,
		"seed":        opt.seed,
		"j":           b.j,
		"k":           b.k,
		"environment": environmentOf(opt.root, digest),
		"walls_s":     walls,
		"cpus_s":      cpus,
		"wall_s_tail": tail(walls),
		"counts":      first,
		"cpi_ci_pct":  100 * want.CPI.RelCI,
		"failed_frac": float64(t.failed) / float64(t.attempted),
		"problems":    t.problems,
	}
	res.Attempted, res.Failed = t.attempted, t.failed
	res.Correct = t.failed == 0
	return res, info, nil
}

// traced measures the per-layer metrics: the progress-event timings of the
// untraced requests, the traced layer calls, the local/fleet pair and the
// estimate's accuracy against the full-stream reference.
func traced(ctx context.Context, b *bench, opt options, out, digest string, samples []*sample, walls, cpus []float64, want *sim.Report, t *tally) (map[string]metric, error) {
	var sweepSpans, tails, firsts []float64
	for _, s := range samples {
		// A fleet request whose workers hold the sweep reports no capture.
		sweep := max(s.ev.lastCaptured, 0)
		sweepSpans = append(sweepSpans, sweep.Seconds())
		tails = append(tails, (s.wall - sweep).Seconds())
		firsts = append(firsts, s.ev.firstReplayed.Seconds())
	}

	tr := newTracer()
	ly, err := traceLayers(ctx, b, tr, want, b.newDir("trace-store"))
	if err != nil {
		return nil, fmt.Errorf("traced run: %w", err)
	}
	if err := tr.write(filepath.Join(out, fmt.Sprintf("trace-%s-%d.json", b.w.name, opt.seed))); err != nil {
		return nil, err
	}
	t.checkN(ly.mirrored, ly.mirrorMismatches, "%d of %d mirrored units differ from the engine's results", ly.mirrorMismatches, ly.mirrored)
	t.check(!ly.aggregateMismatch, "stream-order aggregate of the mirrored units differs from the engine's estimate")
	same, err := sameAsLastRun(filepath.Join(out, "counts", fmt.Sprintf("%s-%s-%d-layers.json", digest, b.w.name, opt.seed)),
		map[string]any{"units": ly.units, "sweep_insts": ly.sweepInsts, "snapshot_bytes": ly.snapshotBytes, "store_bytes": ly.storeBytes})
	if err != nil {
		return nil, err
	}
	t.check(same, "layer byte counts differ from an earlier run of these sources at this seed")

	paired, err := b.pair(ctx, pairedRequests)
	if err != nil {
		return nil, fmt.Errorf("paired requests: %w", err)
	}
	var pairWalls, fleetFirsts []float64
	for _, s := range paired {
		t.check(sameReport(want, s.rep), "paired request report differs from the workload's")
		pairWalls = append(pairWalls, s.wall.Seconds())
		fleetFirsts = append(fleetFirsts, s.ev.firstReplayed.Seconds())
	}
	distOverhead := median(pairWalls) - median(walls)
	if b.w.fleet {
		distOverhead, fleetFirsts = -distOverhead, firsts
	}

	ref, err := referenceFor(ctx, b, filepath.Join(out, "ref", fmt.Sprintf("%s-%s.json", digest, b.w.name)))
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	trueCPI := float64(ref.Cycles) / float64(ref.Insts)
	trueEPI := ref.EnergyNJ / float64(ref.Insts)

	sf := tr.self()
	sec := func(name string) float64 { return sf[name].Seconds() }
	units, sweep, replay := float64(ly.units), float64(ly.sweepInsts), float64(ly.replayInsts)
	replaySelf := sec("checkpoint.materialize") + sec("uarch.core.setup") + sec("uarch.core.run") + sec("stats.aggregate")
	pathSelf, pathWall := replaySelf, ly.mirrorWall.Seconds()+sec("stats.aggregate")
	switch {
	case b.w.freshStore:
		pathSelf += sec("checkpoint.capture") + sec("checkpoint.store.save")
		pathWall += sec("checkpoint.capture") + sec("checkpoint.store.save")
	case !b.w.fleet:
		pathSelf += sec("checkpoint.store.load")
		pathWall += sec("checkpoint.store.load")
	}
	c := samples[0].counts
	return map[string]metric{
		"functional.ns_per_inst":             {1e9 * sec("functional.run") / sweep, "ns"},
		"uarch.warm.ns_per_inst":             {1e9 * (sec("uarch.warm.forward") - sec("functional.run")) / sweep, "ns"},
		"checkpoint.capture.self_s":          {sec("checkpoint.capture") - sec("uarch.warm.forward"), "s"},
		"checkpoint.snapshot_bytes_per_unit": {float64(ly.snapshotBytes) / units, "bytes"},
		"checkpoint.store.save_ms":           {1e3 * sec("checkpoint.store.save"), "ms"},
		"checkpoint.encode_s":                {sec("checkpoint.encode"), "s"},
		"checkpoint.store_bytes_per_unit":    {float64(ly.storeBytes) / units, "bytes"},
		"checkpoint.store.load_ms":           {1e3 * sec("checkpoint.store.load"), "ms"},
		"checkpoint.decode_s":                {sec("checkpoint.decode"), "s"},
		"checkpoint.materialize_us_per_unit": {1e6 * sec("checkpoint.materialize") / units, "us"},
		"uarch.core.setup_us_per_unit":       {1e6 * sec("uarch.core.setup") / units, "us"},
		"uarch.core.ns_per_inst":             {1e9 * sec("uarch.core.run") / replay, "ns"},
		"stats.aggregate_ns_per_unit":        {1e9 * sec("stats.aggregate") / units, "ns"},
		"engine.sweep_span_s":                {median(sweepSpans), "s"},
		"engine.replay_tail_s":               {median(tails), "s"},
		"engine.first_unit_s":                {median(firsts), "s"},
		"dist.overhead_s":                    {distOverhead, "s"},
		"dist.first_unit_s":                  {median(fleetFirsts), "s"},
		"trace.coverage":                     {pathSelf / median(cpus), "ratio"},
		"trace.overhead_pct":                 {100 * pathWall / median(walls), "%"},
		"accuracy.cpi_err_pct":               {100 * math.Abs(want.CPI.Mean-trueCPI) / trueCPI, "%"},
		"accuracy.epi_err_pct":               {100 * math.Abs(want.EPI.Mean-trueEPI) / trueEPI, "%"},
		"accuracy.cpi_ci_pct":                {100 * want.CPI.RelCI, "%"},
		"count.units":                        {float64(c.Units), "count"},
		"count.sweep_insts":                  {float64(c.SweepInsts), "count"},
		"count.detailed_insts":               {float64(c.DetailedInsts), "count"},
		"count.sim_cycles":                   {float64(c.SimCycles), "count"},
		"count.store_hits":                   {float64(c.StoreHits), "count"},
		"count.store_misses":                 {float64(c.StoreMisses), "count"},
	}, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs with at least ten samples
// beyond it, or nil when there are too few samples to have one.
func tail(xs []float64) map[string]any {
	n := len(xs)
	if n <= 10 {
		return map[string]any{"samples": n, "percentile": nil}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return map[string]any{"samples": n, "percentile": 100 * float64(n-10) / float64(n), "value_s": s[n-11]}
}
